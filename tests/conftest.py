"""Shared fixtures."""

import signal

import pytest


@pytest.fixture
def time_limit():
    """Fail the test with TimeoutError once it runs longer than 10 s.

    The limit is an in-process interval timer, so a walk that never ends
    fails where it spins instead of stalling the whole run.
    """

    def expire(signum, frame):
        raise TimeoutError("still running after 10 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 10)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
