"""Per-test resource bounds, so a runaway engine fails the suite instead of
hanging it or filling the machine's memory:

- wall clock: a test that runs past WATCHDOG_S seconds (an endless search)
  dumps every thread's traceback to stderr and ends the pytest process with
  exit status 1.  The slowest test, criterion 2, has taken 8.6-15.8 s
  (pytest --durations=5 on a shared 2-vCPU Xeon VM).
- memory: the pytest process's own address space is capped at MEMORY_LIMIT
  bytes (RLIMIT_AS, lowered on this process only), so a test that keeps
  allocating fails with MemoryError instead of growing.  The suite peaks
  near 200 MB of address space."""

import faulthandler
import os
import resource
import sys

import pytest

WATCHDOG_S = 120
MEMORY_LIMIT = 1 << 30

# a copy of the stderr the session started with: while a test runs, pytest
# captures file descriptor 2, and the dump would end in the capture file
_STDERR = pytest.StashKey[int]()
_RLIMIT_AS = pytest.StashKey[tuple[int, int]]()


def pytest_configure(config: pytest.Config) -> None:
    config.stash[_STDERR] = os.dup(sys.__stderr__.fileno())
    soft, hard = config.stash[_RLIMIT_AS] = resource.getrlimit(resource.RLIMIT_AS)
    if soft == resource.RLIM_INFINITY or soft > MEMORY_LIMIT:  # so hard > MEMORY_LIMIT
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, hard))


def pytest_unconfigure(config: pytest.Config) -> None:
    os.close(config.stash[_STDERR])
    resource.setrlimit(resource.RLIMIT_AS, config.stash[_RLIMIT_AS])


@pytest.fixture(autouse=True)
def _watchdog(request: pytest.FixtureRequest):
    faulthandler.dump_traceback_later(WATCHDOG_S, exit=True,
                                      file=request.config.stash[_STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()
