"""Fixtures of the fork tests (``test_parallel_search.py``,
``test_parallel_verify.py``): a fork counter, a fork floor under any work,
and the check that no child process is left to reap."""
import os

import pytest

from cyclicpd import _fork


@pytest.fixture
def forks(monkeypatch):
    """Counts the forks made in this process."""
    count = [0]
    real_fork = os.fork

    def counting_fork():
        count[0] += 1
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return count


@pytest.fixture
def low_floor(monkeypatch):
    """A fork floor under any search's or grid's work: W = min(CPUs, units)."""
    monkeypatch.setattr(_fork, "FLOOR", 1)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
