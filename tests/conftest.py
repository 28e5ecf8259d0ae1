import pytest

from eaqmds.galois import build_field


@pytest.fixture(scope="session")
def gf4():
    return build_field(2, 2)


@pytest.fixture(scope="session")
def gf9():
    return build_field(3, 2)


@pytest.fixture(scope="session")
def gf16():
    return build_field(2, 4)


@pytest.fixture(scope="session")
def gf25():
    return build_field(5, 2)


@pytest.fixture(scope="session")
def gf256():
    return build_field(2, 8)
