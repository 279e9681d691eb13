"""Words over the two-letter alphabet with real exponents.

An R-word is a finite sequence of letters X^t / Y^t.  Length is the sum of
absolute exponents; coarse length is the letter count.  A SigmaWord is the
constrained block form X^{s_1} Y^{t_1} ... X^{s_N} Y^{t_N} with nonnegative
exponents and unit mass on each generator; these are exactly the words of
length 2 whose image under the group's abelianization map is (1, 1).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence, Tuple

from .scalar import Mode, Scalar, _cleared, _close, _lift, _mode_of, _raw

__all__ = [
    "Generator",
    "Letter",
    "RWord",
    "SigmaWord",
    "SigmaValidationError",
    "WordParseError",
    "length",
    "coarse_length",
    "normalize",
    "parse_word",
    "format_word",
    "word_to_json",
    "sigma_to_rword",
    "sigma_coarse_length",
    "validate_sigma",
    "word_map_a",
    "word_map_b",
    "balanced_word",
]

# Absolute slack for the unit-mass sums in float mode; exact mode allows none.
SUM_TOLERANCE = 1e-12


class Generator(Enum):
    X = "X"
    Y = "Y"


class WordParseError(ValueError):
    """Raised when word text does not follow the letter grammar."""


class SigmaValidationError(ValueError):
    """Raised when an RWord fails the alternating unit-mass constraints."""


@dataclass(frozen=True)
class Letter:
    generator: Generator
    exponent: Scalar


@dataclass(frozen=True)
class RWord:
    """A word and its arithmetic mode.  The mode is its exponents' mode, so
    it may be left out unless the word is empty."""

    letters: Tuple[Letter, ...]
    mode: Optional[Mode] = None

    def __post_init__(self):
        exponents = [letter.exponent for letter in self.letters]
        object.__setattr__(self, "mode", _mode_of(exponents, self.mode, "word"))


def _word(letters: Iterable[Letter], mode: Mode) -> RWord:
    return RWord(tuple(letters), mode)


def length(w: RWord) -> Scalar:
    """Sum of absolute exponents."""
    total = Scalar.zero(w.mode)
    for letter in w.letters:
        total = total + abs(letter.exponent)
    return total


def coarse_length(w: RWord) -> int:
    """Number of letters."""
    return len(w.letters)


def normalize(w: RWord) -> RWord:
    """Merge adjacent equal-generator letters and drop zero exponents.

    Iterates to a fixpoint, so X^1 Y^0 X^1 collapses all the way to X^2.
    Evaluation and length are unchanged; coarse length never increases.
    """
    stack: list[Letter] = []
    for letter in w.letters:
        current = letter
        while True:
            if current.exponent == 0:
                break
            if stack and stack[-1].generator is current.generator:
                merged = stack.pop().exponent + current.exponent
                current = Letter(current.generator, merged)
                continue
            stack.append(current)
            break
    return _word(stack, w.mode)


# text and JSON forms ---------------------------------------------------


def _parse_letter(token: str, mode: Mode) -> Letter:
    name, sep, num = token.partition("^")
    if name not in ("X", "Y"):
        raise WordParseError(f"bad letter token {token!r}: expected X^<num> or Y^<num>")
    generator = Generator(name)
    if not sep:
        return Letter(generator, Scalar.one(mode))
    try:
        exponent = Scalar.parse(num, mode)
    except ValueError as exc:
        raise WordParseError(f"bad exponent in token {token!r}: {exc}") from exc
    return Letter(generator, exponent)


def parse_word(text: str, mode: Mode = Mode.FLOAT) -> RWord:
    """Parse whitespace-separated tokens `X^<num>` / `Y^<num>`.

    Numbers follow the scalar wire format ("p/q" or decimal); a bare X or Y
    means exponent 1.  The empty string parses to the empty word of the mode.
    """
    return _word((_parse_letter(token, mode) for token in text.split()), mode)


def _format_exponent(value: Scalar) -> str:
    # Integral floats print without the trailing .0 so word text stays
    # readable; the JSON wire format keeps the full repr.
    if value.mode is Mode.FLOAT and value.value.is_integer():
        return str(int(value.value))
    return value.as_json()


def format_word(w: RWord) -> str:
    return " ".join(
        f"{letter.generator.value}^{_format_exponent(letter.exponent)}"
        for letter in w.letters
    )


def word_to_json(w: RWord) -> list:
    """JSON form: list of [generator, exponent] pairs."""
    return [[letter.generator.value, letter.exponent.as_json()] for letter in w.letters]


# the Sigma constraint ---------------------------------------------------


@dataclass(frozen=True)
class SigmaWord:
    """Alternating block word X^{s_1} Y^{t_1} ... X^{s_N} Y^{t_N}.

    All block exponents are nonnegative and each generator's exponents sum
    to 1.  Zero blocks are legal: the maps below degenerate exponents to 0
    at parameter 1, and those words must stay representable.  Zero letters
    are removed only when counting coarse length.
    """

    blocks: Tuple[Tuple[Scalar, Scalar], ...]

    def __post_init__(self):
        if not self.blocks:
            raise SigmaValidationError("a Sigma word needs at least one block")
        mode = self.blocks[0][0].mode
        if not all(s.mode is mode and t.mode is mode for s, t in self.blocks):
            raise SigmaValidationError("all block exponents must share one mode")
        _check_sigma(
            [s.value for s, _ in self.blocks], [t.value for _, t in self.blocks], 1, mode
        )

    @property
    def mode(self) -> Mode:
        return self.blocks[0][0].mode


def _check_sigma(xs: Sequence, ys: Sequence, den, mode: Mode) -> None:
    """The Sigma rules on raw block exponents x/den and y/den, for every
    `SigmaWord` and for the words the commutation suite maps: raise
    SigmaValidationError unless all are nonnegative and each generator's
    sum to 1.  Exact exponents are rationals, or ints over an int den, and
    are summed as ints over their common denominator; float exponents come
    over den = 1 and their sum may miss 1 by SUM_TOLERANCE.  A Scalar is
    made only for a failure message."""
    # Written so that a NaN exponent fails the test.
    if not all(s >= 0 and t >= 0 for s, t in zip(xs, ys)):
        raise SigmaValidationError("negative or NaN block exponent")
    for label, values in (("X", xs), ("Y", ys)):
        lcm, ints = _cleared(mode, values)
        # A left-to-right loop, because sum() of doubles is compensated on
        # Python 3.12 and later.
        total = 0
        for v in ints:
            total += v
        if not _close(mode, total, den * lcm, SUM_TOLERANCE):
            raise SigmaValidationError(
                f"{label}-exponents sum to {Scalar.lift(total, mode, den * lcm)}, expected 1"
            )


def sigma_to_rword(w: SigmaWord) -> RWord:
    """Explicit letter form, keeping zero-exponent letters."""
    letters = []
    for s, t in w.blocks:
        letters.append(Letter(Generator.X, s))
        letters.append(Letter(Generator.Y, t))
    return _word(letters, w.mode)


def sigma_coarse_length(w: SigmaWord) -> int:
    """Letter count after dropping degenerate zero blocks."""
    return coarse_length(normalize(sigma_to_rword(w)))


def validate_sigma(w: RWord) -> SigmaWord:
    """Check the alternating unit-mass constraints on an RWord.

    Maximal same-generator runs become blocks, with zero exponents inserted
    where a block is missing (a leading Y run gets an empty X part, and a
    trailing X run an empty Y part).  Raises SigmaValidationError on a
    negative or NaN exponent or when either generator's mass differs from 1.
    """
    for letter in w.letters:
        if not letter.exponent >= 0:
            raise SigmaValidationError(
                f"negative or NaN exponent {letter.exponent} in {format_word(w)!r}"
            )
    runs: list[tuple[Generator, Scalar]] = []
    for letter in w.letters:
        if runs and runs[-1][0] is letter.generator:
            runs[-1] = (letter.generator, runs[-1][1] + letter.exponent)
        else:
            runs.append((letter.generator, letter.exponent))
    if not runs:
        raise SigmaValidationError("empty word is not a Sigma word")
    # The runs alternate; pad them to start with X and end with Y, then pair.
    zero = Scalar.zero(w.mode)
    if runs[0][0] is Generator.Y:
        runs.insert(0, (Generator.X, zero))
    if runs[-1][0] is Generator.X:
        runs.append((Generator.Y, zero))
    totals = [total for _, total in runs]
    return SigmaWord(tuple(zip(totals[::2], totals[1::2])))


# the one-parameter rewriting maps ---------------------------------------


def _check_parameter(t: Scalar) -> None:
    """The one check of a map or step parameter; NaN fails it."""
    if not 0 <= t <= 1:
        raise ValueError(f"map parameter {t} outside [0, 1]")


def _from_values(xs: Sequence, ys: Sequence, mode: Mode) -> SigmaWord:
    scalar = functools.partial(Scalar, mode)
    return SigmaWord(tuple(zip(map(scalar, xs), map(scalar, ys))))


def word_map_a(w: SigmaWord, t: Scalar) -> SigmaWord:
    """Rescale every X-exponent by 1-t and append X^t."""
    _check_parameter(t)
    xs, ys = (_raw(t.mode, part) for part in zip(*w.blocks))
    xs, ys, _ = _word_map_a(xs, ys, t.value, 1, _lift(t.mode, 1))
    return _from_values(xs, ys, t.mode)


def word_map_b(w: SigmaWord, t: Scalar) -> SigmaWord:
    """Rescale every Y-exponent by 1-t and append Y^t."""
    _check_parameter(t)
    xs, ys = (_raw(t.mode, part) for part in zip(*w.blocks))
    xs, ys, _ = _word_map_b(xs, ys, t.value, 1, _lift(t.mode, 1))
    return _from_values(xs, ys, t.mode)


# The word maps on raw exponents x/d and y/d with t = k/q.  The image's
# exponents are given over q*d, so exact words map on ints.  `word_map_a`
# and `word_map_b` call them with (k, q) = (t, 1) and d the mode's 1, whose
# type the appended zero takes; the commutation suite calls them on ints.
def _word_map_a(xs: Sequence, ys: Sequence, k, q, d) -> Tuple[list, list, object]:
    r = q - k
    return [s * r for s in xs] + [k * d], [y * q for y in ys] + [0 * d], q * d


def _word_map_b(xs: Sequence, ys: Sequence, k, q, d) -> Tuple[list, list, object]:
    r = q - k
    ys = [y * r for y in ys]
    ys[-1] = ys[-1] + k * d
    return [s * q for s in xs], ys, q * d


def balanced_word(n: int, mode: Mode = Mode.EXACT) -> SigmaWord:
    """The word (X^{1/n} Y^{1/n})^n: n equal blocks.

    Satisfies the recursion balanced_word(n) equals word_map_b applied with
    parameter 1/n after word_map_a with parameter 1/n on balanced_word(n-1).
    """
    if n < 1:
        raise ValueError("block count must be at least 1")
    share = Scalar.lift(1, mode, n)
    return SigmaWord(((share, share),) * n)
