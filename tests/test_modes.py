"""The exact-or-float decision: mixed modes fail at every public boundary,
and only `scalar.py` branches on the mode."""

import ast
from pathlib import Path

import pytest

import nilwords
from nilwords.dynamics import (
    UVWPoint,
    XYPoint,
    map_a_uvw,
    map_a_xy,
    map_b_uvw,
    map_b_xy,
    project,
)
from nilwords.lie_core import AlgebraVector, bracket, multiply
from nilwords.region import EpsilonPolicy, membership
from nilwords.scalar import Mode, ModeMismatchError, Scalar
from nilwords.words import SigmaWord, word_map_a, word_map_b


def half(mode):
    return Scalar.lift(1, mode, 2)


def element(mode):
    return AlgebraVector(*[half(mode)] * 5)


def sigma(mode):
    return SigmaWord(((half(mode), half(mode)),) * 2)


# Each case takes the two modes (m, n) and combines scalars of both.
MIXED = {
    "multiply": lambda m, n: multiply(element(m), element(n)),
    "bracket": lambda m, n: bracket(element(m), element(n)),
    "map_a_uvw": lambda m, n: map_a_uvw(half(m), UVWPoint(*[half(n)] * 3)),
    "map_b_uvw": lambda m, n: map_b_uvw(half(m), UVWPoint(*[half(n)] * 3)),
    "map_a_xy": lambda m, n: map_a_xy(half(m), XYPoint(half(n), half(n))),
    "map_b_xy": lambda m, n: map_b_xy(half(m), XYPoint(half(n), half(n))),
    "project": lambda m, n: project(UVWPoint(half(m), half(n), half(m))),
    "word_map_a": lambda m, n: word_map_a(sigma(m), half(n)),
    "word_map_b": lambda m, n: word_map_b(sigma(m), half(n)),
    "membership-point": lambda m, n: membership(XYPoint(half(m), half(n))),
    "membership-policy": lambda m, n: membership(
        XYPoint(half(m), half(m)), EpsilonPolicy.for_mode(n)
    ),
}


@pytest.mark.parametrize("case", sorted(MIXED))
def test_mixed_modes_raise(case):
    combine = MIXED[case]
    for mode in Mode:
        combine(mode, mode)
    for modes in ((Mode.EXACT, Mode.FLOAT), (Mode.FLOAT, Mode.EXACT)):
        with pytest.raises(ModeMismatchError, match="cannot"):
            combine(*modes)


# The only functions outside scalar.py that may still test the mode, each
# with its reason.
ALLOWED = {
    # Exact mode admits no nonzero margin.
    ("region.py", "EpsilonPolicy.__post_init__"),
    # Integral doubles print without their ".0".
    ("words.py", "_format_exponent"),
    # The samplers draw different inputs per mode by design: scaled ints
    # for exact trials, doubles for float ones.
    ("verify.py", "_rand_vector"),
    ("verify.py", "_random_sigma_word"),
    ("verify.py", "_rand_parameter"),
    ("verify.py", "_random_interior_point"),
    # Float planar triples are divided out, so each float check sees the
    # public functions' doubles.
    ("verify.py", "_suite_commutation"),
}
SCANNED = (
    "lie_core.py", "words.py", "dynamics.py", "region.py", "verify.py", "search.py", "cli.py"
)


def _is_mode_constant(node):
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "Mode"
        and node.attr in ("EXACT", "FLOAT")
    )


def _names_float(node):
    if isinstance(node, ast.Tuple):
        return any(_names_float(e) for e in node.elts)
    return isinstance(node, ast.Name) and node.id == "float"


def _mode_tests(tree):
    """(qualified name of the enclosing function, line) of every comparison
    with Mode.EXACT or Mode.FLOAT and every isinstance(..., float) call."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Compare) and any(
            _is_mode_constant(n) for n in (node.left, *node.comparators)
        ):
            found.append((".".join(scope), node.lineno))
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
            and _names_float(node.args[1])
        ):
            found.append((".".join(scope), node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def test_mode_is_decided_in_scalar_only():
    package = Path(nilwords.__file__).parent
    offenders = []
    for name in SCANNED:
        tree = ast.parse((package / name).read_text(encoding="utf-8"))
        offenders += [
            f"{name}:{line} in {scope or '<module>'}"
            for scope, line in _mode_tests(tree)
            if (name, scope) not in ALLOWED
        ]
    assert offenders == []


def test_the_scan_sees_a_mode_test():
    source = (
        "def f(mode, x):\n"
        "    if mode is Mode.EXACT:\n"
        "        return 1\n"
        "    return isinstance(x, (int, float))\n"
    )
    assert _mode_tests(ast.parse(source)) == [("f", 2), ("f", 4)]
