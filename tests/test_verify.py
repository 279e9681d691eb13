"""The randomized verification suites at reduced trial counts."""

import random

import pytest

from nilwords.dynamics import XYPoint
from nilwords.region import EpsilonPolicy, Membership, membership
from nilwords.scalar import Mode, Scalar
from nilwords.verify import SUITE_NAMES, _random_interior_point, run_suite


def test_suite_names():
    assert SUITE_NAMES == ("algebra", "commutation", "invariance", "convergence")


@pytest.mark.parametrize("suite", SUITE_NAMES)
@pytest.mark.parametrize("mode", (Mode.EXACT, Mode.FLOAT))
def test_small_runs_pass(suite, mode):
    result = run_suite(suite, mode=mode, trials=40, seed=7)
    assert result.passed, [c for c in result.checks if not c.passed]
    assert result.suite == suite
    assert result.mode is mode
    assert result.trials == 40
    assert result.checks
    assert result.seconds >= 0.0
    assert all(c.detail for c in result.checks)


def test_deterministic_given_seed():
    a = run_suite("algebra", mode=Mode.FLOAT, trials=25, seed=99)
    b = run_suite("algebra", mode=Mode.FLOAT, trials=25, seed=99)
    assert [c.detail for c in a.checks] == [c.detail for c in b.checks]


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("nonsense", trials=1)


@pytest.mark.parametrize("mode", (Mode.EXACT, Mode.FLOAT))
def test_interior_points_match_the_membership_loop(mode):
    # The draw loop that classified every candidate as a point by
    # `membership`; the integer-triple path must accept the same candidates
    # and so leave the generator in the same state.
    def by_membership(rnd):
        policy = EpsilonPolicy.for_mode(mode)
        while True:
            if mode is Mode.EXACT:
                p = XYPoint(
                    Scalar.exact(rnd.randint(1, 1023), 1024),
                    Scalar.exact(rnd.randint(1, 1023), 1024),
                )
            else:
                p = XYPoint.of_floats(rnd.random(), rnd.random())
            if membership(p, policy).status is Membership.INTERIOR_MEMBER:
                return p

    new, old = random.Random(11), random.Random(11)
    for _ in range(300):
        p, q = _random_interior_point(new, mode), by_membership(old)
        assert p.mode is q.mode is mode
        assert (p.x.value, p.y.value) == (q.x.value, q.y.value)
        assert type(p.x.value) is type(q.x.value)
    assert new.getstate() == old.getstate()
