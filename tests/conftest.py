import pytest

from jacobiforms import make_lattice


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
