import pytest

from assoc2.audit import desk_nvectors
from assoc2.twoassoc import enumerate_Wn


@pytest.fixture(scope="session")
def desk_wn():
    """Every desk W_n, held until the session ends.

    The enumeration memo keeps no poset by itself, so a module whose tests
    read the desk W_n again and again uses this fixture, and each later call
    for a desk n returns the held poset instead of enumerating it again.
    """
    return {n: enumerate_Wn(n) for n in desk_nvectors()}
