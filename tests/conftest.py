import sys

import pytest

# the suite imports the package from its sources: write no bytecode next to
# them, where a later run in the same checkout would read it
sys.dont_write_bytecode = True

from jacobiforms import make_lattice  # noqa: E402


@pytest.fixture(scope="session")
def a1():
    return make_lattice([[2]])


@pytest.fixture(scope="session")
def a1_scaled4():
    return make_lattice([[8]])


@pytest.fixture(scope="session")
def a2():
    return make_lattice([[2, 1], [1, 2]])


@pytest.fixture(scope="session")
def square2():
    return make_lattice([[2, 0], [0, 2]])


@pytest.fixture(scope="session")
def test_lattices(a1, a1_scaled4, a2, square2):
    return [a1, a1_scaled4, a2, square2]


@pytest.fixture(scope="session")
def a3():
    return make_lattice([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])


@pytest.fixture(scope="session")
def d4():
    return make_lattice([[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]])


@pytest.fixture(scope="session")
def model_lattices(test_lattices, a3, d4):
    """Discriminant forms for the integer-model checks: ranks 1-4, |G| up to 400.

    [[6]] is the one whose rho(T) has the entry e(3/4) = -i (a signed zero).
    """
    extra = ([[6]], [[64]], [[12, 6], [6, 12]], [[20, 0], [0, 20]])
    return test_lattices + [a3, d4] + [make_lattice(g) for g in extra]


@pytest.fixture(scope="session")
def e8():
    return make_lattice([
        [2, -1, 0, 0, 0, 0, 0, 0],
        [-1, 2, -1, 0, 0, 0, 0, 0],
        [0, -1, 2, -1, 0, 0, 0, -1],
        [0, 0, -1, 2, -1, 0, 0, 0],
        [0, 0, 0, -1, 2, -1, 0, 0],
        [0, 0, 0, 0, -1, 2, -1, 0],
        [0, 0, 0, 0, 0, -1, 2, 0],
        [0, 0, -1, 0, 0, 0, 0, 2],
    ])
