"""Fixtures shared by every test module."""

import pytest

from nilwords import search


@pytest.fixture(autouse=True)
def cold_search_walk():
    """Empty this thread's search slot before each test.

    A search resumes the walk of the last problem searched in its thread,
    so a test that counts the work of a walk would otherwise depend on
    which test ran before it.
    """
    vars(search._last_walk).clear()
