"""A per-test wall-clock limit: a test that runs past WATCHDOG_S seconds
(a runaway engine, an endless search) dumps every thread's traceback to
stderr and ends the pytest process with exit status 1, instead of hanging
the suite.  The slowest test takes about 9 s."""

import faulthandler
import os
import sys

import pytest

WATCHDOG_S = 120

# a copy of the stderr the session started with: while a test runs, pytest
# captures file descriptor 2, and the dump would end in the capture file
_STDERR = pytest.StashKey[int]()


def pytest_configure(config: pytest.Config) -> None:
    config.stash[_STDERR] = os.dup(sys.__stderr__.fileno())


def pytest_unconfigure(config: pytest.Config) -> None:
    os.close(config.stash[_STDERR])


@pytest.fixture(autouse=True)
def _watchdog(request: pytest.FixtureRequest):
    faulthandler.dump_traceback_later(WATCHDOG_S, exit=True,
                                      file=request.config.stash[_STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()
