import pytest

import linpois as lp

# worked example matrices used across the suite
EXAMPLE1 = [[1, 0, 1], [0, 2, 1]]
EXAMPLE2 = [[1, 3, 2, 2], [5, 16, 12, 17], [3, 16, 21, 56]]
EXAMPLE3 = [[1, 5, 3], [2, 10, 5], [0, 1, 8]]

EXAMPLE3_INVERSE = [[75, -37, -5], [-16, 8, 1], [2, -1, 0]]


@pytest.fixture(scope="session")
def model1():
    return lp.PoissonModel(EXAMPLE1, [1.0, 1.0, 1.0], name="example-1")


@pytest.fixture(scope="session")
def model2():
    return lp.PoissonModel(EXAMPLE2, [1.0, 1.0, 1.0, 1.0], name="example-2")


@pytest.fixture(scope="session")
def model3():
    return lp.PoissonModel(EXAMPLE3, [1.0, 1.0, 1.0], name="example-3")
