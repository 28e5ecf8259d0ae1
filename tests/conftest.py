import signal

import pytest

from eaqmds.galois import build_field

# wall-clock seconds after which a test fails instead of hanging the
# suite; the slowest test takes a few seconds
TEST_TIME_LIMIT_S = 60


@pytest.fixture(autouse=True)
def _time_limit():
    def expire(signum, frame):
        pytest.fail(f"test still running after {TEST_TIME_LIMIT_S} s",
                    pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


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
