import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import oakit.arrays
from oakit.algebra import hadamard01
from oakit.catalog import seed_array, seed_scheme


@pytest.fixture(scope="session")
def moa12():
    """The searched MOA(12, 5, 3^1 2^4, 2) seed."""
    return seed_array("moa-12-3x2^4")


@pytest.fixture(scope="session")
def scheme18():
    """The searched strength-3 scheme on 18 rows and 5 ternary columns."""
    return seed_scheme("scheme-18x5-over-3")


@pytest.fixture(scope="session")
def h12():
    return hadamard01(12)


@pytest.fixture(scope="session")
def thm3_full():
    """The 216 x 41 strength-3 array over 3^5 2^36, built once per session."""
    from oakit.constructions import three_uniform_3m2n

    return three_uniform_3m2n(5, 36)


@pytest.fixture()
def split_passes(monkeypatch):
    """The array of every split pass made during the test: each ``_split_counts``
    call that returns counts, whether it compared row pairs or read a coset's rows."""
    passes = []
    kernel = oakit.arrays._split_counts

    def counted(array, groups, compare=True):
        counts = kernel(array, groups, compare)
        if counts is not None:
            passes.append(array)
        return counts

    monkeypatch.setattr(oakit.arrays, "_split_counts", counted)
    return passes
