"""Shared fixtures."""

import signal

import pytest


class TimeLimitExceeded(BaseException):
    """A test ran past its time limit.

    A BaseException, so neither `except Exception` (run_suite's failing
    reports) nor `except (ValueError, RuntimeError, OSError)` (cli.main's
    exit 1) can turn a hang into an ordinary failure or a pass.
    """


@pytest.fixture
def time_limit():
    """Fail the test with TimeLimitExceeded once it runs longer than 10 s.

    The limit is an in-process interval timer, so a walk that never ends
    fails where it spins instead of stalling the whole run.
    """

    def expire(signum, frame):
        raise TimeLimitExceeded("still running after 10 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 10)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
