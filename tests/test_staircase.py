"""The staircase law against the package's exact word evaluation.

`staircase` computes a Sigma word's image from its staircase path alone;
`eval_xy` and `eval_uvw` compute it through the group law.  They must agree
exactly, and the path's cube identity and the zigzag word's floor must hold
exactly.
"""

import random
from fractions import Fraction

import pytest

from nilwords.dynamics import eval_uvw, eval_xy
from nilwords.scalar import Scalar
from nilwords.words import SigmaWord

import staircase


def _random_blocks(rnd: random.Random) -> list:
    """A unit-mass block word of 2..40 letters, X or Y first, with zero
    letters and zero blocks mixed in about one word in three."""
    count = rnd.randint(2, 40)
    names = ["X", "Y"] if rnd.random() < 0.5 else ["Y", "X"]
    names = (names * count)[:count]
    weights = [rnd.randint(1, 9) for _ in names]
    if rnd.random() < 0.35:
        weights[rnd.randrange(count)] = 0
    for name in "XY":
        if not sum(w for n, w in zip(names, weights) if n == name):
            weights[names.index(name)] = 1
    totals = {name: sum(w for n, w in zip(names, weights) if n == name) for name in "XY"}
    masses = [Fraction(w, totals[n]) for n, w in zip(names, weights)]
    if names[0] == "Y":
        masses.insert(0, Fraction(0))
    if len(masses) % 2:
        masses.append(Fraction(0))
    blocks = list(zip(masses[::2], masses[1::2]))
    if rnd.random() < 0.35:
        blocks.insert(rnd.randrange(len(blocks) + 1), (Fraction(0), Fraction(0)))
    return blocks


def _sigma(blocks) -> SigmaWord:
    return SigmaWord(tuple((Scalar.exact(a), Scalar.exact(b)) for a, b in blocks))


WORDS = [_random_blocks(random.Random(f"staircase:{i}")) for i in range(1000)]


def test_the_sample_covers_both_first_letters_every_length_and_zero_blocks():
    first = {"X" if blocks[0][0] else "Y" for blocks in WORDS}
    counts = {sum(1 for a, b in blocks for m in (a, b) if m) for blocks in WORDS}
    assert first == {"X", "Y"}
    assert counts == set(range(2, 41))
    assert any((0, 0) in blocks for blocks in WORDS)


def test_the_law_is_the_exact_image_of_every_word():
    for blocks in WORDS:
        word = _sigma(blocks)
        x, y, _ = staircase.image(blocks)
        point = eval_xy(word)
        assert (point.x.value, point.y.value) == (x, y), blocks
        assert tuple(c.value for c in eval_uvw(word).coords()) == staircase.uvw(blocks), blocks


def test_the_excess_over_two_thirds_is_the_cube_sum():
    for blocks in WORDS:
        x, y, _ = staircase.image(blocks)
        assert x + y - Fraction(2, 3) == staircase.cube_excess(blocks), blocks


@pytest.mark.parametrize("c", range(2, 51))
def test_the_zigzag_word_meets_the_floor_exactly(c):
    blocks = staircase.zigzag(c)
    assert sum(1 for a, b in blocks for m in (a, b) if m) == c
    point = eval_xy(_sigma(blocks))
    floor = Fraction(1, 3 * (c - 1) ** 2)
    assert point.x.value + point.y.value - Fraction(2, 3) == floor
    assert staircase.cube_excess(blocks) == floor

