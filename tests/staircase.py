"""Independent oracle: the staircase law for the image of a Sigma word.

Read a unit-mass alternating word X^{a_1} Y^{b_1} ... X^{a_n} Y^{b_n} as a
monotone staircase path in the (A, B) plane from (0, 0) to (1, 1): a letter
X^a moves right by a, a letter Y^b moves up by b.  The word's group element
is the signature of that path truncated at step 3 (Chen 1957), so its image
has a closed form in the path alone:

    x = sum_j b_j A_j^2        = integral of A^2 dB
    y = sum_i a_i B_i^2        = integral of B^2 dA
    u = sum_j b_j A_j - sum_i a_i B_i = integral of (A dB - B dA)
    v = 6x - 3u - 2,  w = 6y + 3u - 2   (the inverse of the projection)

where A_j is the X-mass before Y-letter j and B_i the Y-mass before X-letter
i.  Along the path g = A - B rises on X letters and falls on Y letters, and

    x + y - 2/3 = (1/6) * sum over letters of |g_end^3 - g_start^3|,

since per letter the two sides differ by the increment of
Phi = -(A + B)(A - B)^2 / 2, which is 0 at both ends of the path.  With
|q^3 - p^3| >= |q - p|^3 / 4 and sum |dg| = 2, a word of c letters has
x + y - 2/3 >= 1/(3(c - 1)^2), with equality at the zigzag word.

This module shares no code with the package: no group law, no maps, only
`Fraction` sums over the letters.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Tuple

Blocks = Sequence[Tuple[Fraction, Fraction]]


def letters(blocks: Blocks) -> List[Tuple[str, Fraction]]:
    """The letters of the block word X^{a_1} Y^{b_1} ..., zero ones kept."""
    return [(name, mass) for a, b in blocks for name, mass in (("X", a), ("Y", b))]


def image(blocks: Blocks) -> Tuple[Fraction, Fraction, Fraction]:
    """(x, y, u) of the word, summed along its staircase path."""
    x = y = u = Fraction(0)
    across = up = Fraction(0)  # the X-mass and Y-mass walked so far
    for name, mass in letters(blocks):
        if name == "X":
            y += mass * up * up
            u -= mass * up
            across += mass
        else:
            x += mass * across * across
            u += mass * across
            up += mass
    return x, y, u


def uvw(blocks: Blocks) -> Tuple[Fraction, Fraction, Fraction]:
    """(u, v, w) of the word: the projection x = (v + 3u + 2)/6,
    y = (w - 3u + 2)/6 solved for v and w."""
    x, y, u = image(blocks)
    return u, 6 * x - 3 * u - 2, 6 * y + 3 * u - 2


def cube_excess(blocks: Blocks) -> Fraction:
    """(1/6) * sum over letters of |g_end^3 - g_start^3|, g = A - B."""
    total = Fraction(0)
    g = Fraction(0)
    for name, mass in letters(blocks):
        end = g + mass if name == "X" else g - mass
        total += abs(end**3 - g**3)
        g = end
    return total / 6


def zigzag(c: int) -> List[Tuple[Fraction, Fraction]]:
    """The zigzag word of c >= 2 letters, X first, as blocks: its first and
    last letters have mass 1/(c - 1), every other letter 2/(c - 1)."""
    masses = [Fraction(1 if i in (0, c - 1) else 2, c - 1) for i in range(c)]
    if c % 2:
        masses.append(Fraction(0))  # an odd word ends on X: a zero Y closes it
    return list(zip(masses[::2], masses[1::2]))
