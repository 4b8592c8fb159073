"""A hung test ends the run instead of holding it forever: each test arms
a `faulthandler` timer that, HANG_TIMEOUT_S seconds on, writes every
thread's traceback to stderr and exits the process.  The slowest test
takes about 5 s."""

import faulthandler
import os
import sys

import pytest

HANG_TIMEOUT_S = 120

# A copy of the stderr descriptor, taken in `pytest_configure`, where
# output capture is off: a dump into a capture file would be lost with
# the process.
_stderr_fd = None


def pytest_configure(config):
    global _stderr_fd
    _stderr_fd = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    faulthandler.cancel_dump_traceback_later()
    os.close(_stderr_fd)


@pytest.fixture(autouse=True)
def hang_guard():
    faulthandler.dump_traceback_later(HANG_TIMEOUT_S, exit=True, file=_stderr_fd)
    yield
    faulthandler.cancel_dump_traceback_later()
