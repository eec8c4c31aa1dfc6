from functools import cache

import pytest

from assoc2.audit import desk_nvectors
from assoc2.twoassoc import enumerate_Wn, face_two_bracketings


@pytest.fixture(scope="session")
def desk_wn():
    """Every desk W_n by n, enumerated once and held until the session ends.

    enumerate_Wn keeps nothing between calls, so a test that reads a desk
    W_n takes this fixture and indexes it instead of enumerating it again.
    """
    return {n: enumerate_Wn(n) for n in desk_nvectors()}


@pytest.fixture(scope="module")
def wn_faces():
    """n -> dict(face_two_bracketings(n)), built on the first request for n.

    face_two_bracketings enumerates W_n before it yields a face, so the
    tests of one module that read the face objects of one n share one
    build.  The objects go with the module.
    """
    return cache(lambda n: dict(face_two_bracketings(n)))
