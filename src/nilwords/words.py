"""Words over the two-letter alphabet with real exponents.

An R-word is a finite sequence of letters X^t / Y^t.  Length is the sum of
absolute exponents; coarse length is the letter count.  A SigmaWord is the
constrained block form X^{s_1} Y^{t_1} ... X^{s_N} Y^{t_N} with nonnegative
exponents and unit mass on each generator; these are exactly the words of
length 2 whose image under the group's abelianization map is (1, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Tuple

from .scalar import Mode, Scalar

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
    "word_from_json",
    "sigma_to_rword",
    "sigma_length",
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
    """Raised when word text or JSON does not follow the letter grammar."""


class SigmaValidationError(ValueError):
    """Raised when an RWord fails the alternating unit-mass constraints."""


@dataclass(frozen=True)
class Letter:
    generator: Generator
    exponent: Scalar


@dataclass(frozen=True)
class RWord:
    letters: Tuple[Letter, ...]

    def __post_init__(self):
        if self.letters:
            mode = self.letters[0].exponent.mode
            if any(letter.exponent.mode is not mode for letter in self.letters):
                raise ValueError("all exponents in a word must share one arithmetic mode")

    def mode(self, default: Mode = Mode.FLOAT) -> Mode:
        return self.letters[0].exponent.mode if self.letters else default


def _word(letters: Iterable[Letter]) -> RWord:
    return RWord(tuple(letters))


def length(w: RWord) -> Scalar:
    """Sum of absolute exponents."""
    total = Scalar.zero(w.mode())
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
    return _word(stack)


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
    except (ValueError, ZeroDivisionError) as exc:
        raise WordParseError(f"bad exponent in token {token!r}: {exc}") from exc
    return Letter(generator, exponent)


def parse_word(text: str, mode: Mode = Mode.FLOAT) -> RWord:
    """Parse whitespace-separated tokens `X^<num>` / `Y^<num>`.

    Numbers follow the scalar wire format ("p/q" or decimal); a bare X or Y
    means exponent 1.  The empty string parses to the empty word.
    """
    return _word(_parse_letter(token, mode) for token in text.split())


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


def word_from_json(data: Sequence, mode: Mode = Mode.FLOAT) -> RWord:
    letters = []
    for item in data:
        try:
            name, num = item
        except (TypeError, ValueError) as exc:
            raise WordParseError(f"bad letter entry {item!r}") from exc
        letters.append(_parse_letter(f"{name}^{num}", mode))
    return _word(letters)


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
        # Checked on the raw values, because this runs for every word a map
        # or a search builds; a Scalar is made only for a failure message.
        if not self.blocks:
            raise SigmaValidationError("a Sigma word needs at least one block")
        mode = self.blocks[0][0].mode
        if not all(s.mode is mode and t.mode is mode for s, t in self.blocks):
            raise SigmaValidationError("all block exponents must share one mode")
        xs = [s.value for s, _ in self.blocks]
        ys = [t.value for _, t in self.blocks]
        # Written so that a NaN exponent fails the test.
        if not all(s >= 0 and t >= 0 for s, t in zip(xs, ys)):
            raise SigmaValidationError("negative or NaN block exponent")
        unit_mass = _unit_mass_exact if mode is Mode.EXACT else _unit_mass_float
        for label, values in (("X", xs), ("Y", ys)):
            total = unit_mass(values)
            if total is not None:
                raise SigmaValidationError(
                    f"{label}-exponents sum to {Scalar(mode, total)}, expected 1"
                )

    def mode(self) -> Mode:
        return self.blocks[0][0].mode


def _unit_mass_exact(values: list) -> Optional[Fraction]:
    """None if the rationals sum to exactly 1, else their sum.  The check
    scales the numerators to the lcm L of the denominators and compares
    their integer sum with L; the Fraction sum is built only on failure."""
    den = math.lcm(*(v.denominator for v in values))
    if sum(v.numerator * (den // v.denominator) for v in values) == den:
        return None
    return sum(values, Fraction(0))


def _unit_mass_float(values: list) -> Optional[float]:
    """None if the left-to-right double sum is within SUM_TOLERANCE of 1
    (never for NaN), else that sum."""
    total = 0.0
    for v in values:
        total += v
    return None if abs(total - 1) <= SUM_TOLERANCE else total


def sigma_to_rword(w: SigmaWord) -> RWord:
    """Explicit letter form, keeping zero-exponent letters."""
    letters = []
    for s, t in w.blocks:
        letters.append(Letter(Generator.X, s))
        letters.append(Letter(Generator.Y, t))
    return _word(letters)


def sigma_length(w: SigmaWord) -> Scalar:
    return length(sigma_to_rword(w))


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
    mode = w.mode()
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
    blocks: list[tuple[Scalar, Scalar]] = []
    zero = Scalar.zero(mode)
    pending_x: Scalar | None = None
    for generator, total in runs:
        if generator is Generator.X:
            if pending_x is not None:
                blocks.append((pending_x, zero))
            pending_x = total
        else:
            blocks.append((pending_x if pending_x is not None else zero, total))
            pending_x = None
    if pending_x is not None:
        blocks.append((pending_x, zero))
    if not blocks:
        raise SigmaValidationError("empty word is not a Sigma word")
    return SigmaWord(tuple(blocks))


# the one-parameter rewriting maps ---------------------------------------


def _check_parameter(t: Scalar) -> None:
    """The one check of a map or step parameter; NaN fails it."""
    if not 0 <= t <= 1:
        raise ValueError(f"map parameter {t} outside [0, 1]")


def word_map_a(w: SigmaWord, t: Scalar) -> SigmaWord:
    """Rescale every X-exponent by 1-t and append X^t."""
    _check_parameter(t)
    scale = 1 - t
    zero = Scalar.zero(t.mode)
    blocks = tuple((s * scale, ty) for s, ty in w.blocks) + ((t, zero),)
    return SigmaWord(blocks)


def word_map_b(w: SigmaWord, t: Scalar) -> SigmaWord:
    """Rescale every Y-exponent by 1-t and append Y^t."""
    _check_parameter(t)
    scale = 1 - t
    scaled = [(s, ty * scale) for s, ty in w.blocks]
    last_s, last_t = scaled[-1]
    scaled[-1] = (last_s, last_t + t)
    return SigmaWord(tuple(scaled))


def balanced_word(n: int, mode: Mode = Mode.EXACT) -> SigmaWord:
    """The word (X^{1/n} Y^{1/n})^n: n equal blocks.

    Satisfies the recursion balanced_word(n) equals word_map_b applied with
    parameter 1/n after word_map_a with parameter 1/n on balanced_word(n-1).
    """
    if n < 1:
        raise ValueError("block count must be at least 1")
    share = Scalar.lift(1, mode, n)
    return SigmaWord(((share, share),) * n)
