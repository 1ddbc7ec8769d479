"""_fork.run_units on its own: every job once and the results in job order
whatever the costs, each worker on its own first job of the longest-first
order, the serial run's error, a queue longer than a pipe holds, a queue
that closes when the parent stops early, and a reply that cannot be decoded;
no child left behind."""
import errno
import functools
import os
import time

import pytest

from conftest import assert_no_child_left
from cyclicpd import _fork

COSTS = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5]  # uneven, with ties
FIRSTS = [5, 7, 4, 8, 10]  # the jobs of COSTS by descending cost, ties by index


def logged(log, i, seconds=0.0):
    """A job that sleeps, appends "i pid" to the file ``log`` and returns (i, pid)."""
    def job():
        time.sleep(seconds)
        with open(log, "a") as fh:
            fh.write(f"{i} {os.getpid()}\n")
        return i, os.getpid()
    return job


def ran(log):
    """The (i, pid) of every job that ran, from its line in ``log``."""
    return [tuple(map(int, line.split())) for line in log.read_text().splitlines()]


@pytest.mark.parametrize("workers", [2, 3, 5])
def test_every_job_once_in_job_order(tmp_path, forks, workers):
    log = tmp_path / "log"
    jobs = [logged(log, i, 0.002 * cost) for i, cost in enumerate(COSTS)]
    results = _fork.run_units(jobs, COSTS, workers)
    assert [i for i, _ in results] == list(range(len(jobs)))
    # each job ran once, in the process whose result came back
    assert sorted(ran(log)) == sorted(results)
    assert forks[0] == workers - 1
    assert_no_child_left()


@pytest.mark.parametrize("workers", [2, 3, 5])
def test_each_worker_runs_its_first_job(forks, workers):
    pids = _fork.run_units([os.getpid] * len(COSTS), COSTS, workers)
    firsts = [pids[i] for i in FIRSTS[:workers]]
    assert firsts[0] == os.getpid()
    assert len(set(firsts)) == workers
    assert forks[0] == workers - 1
    assert_no_child_left()


def failing(bad, i):
    if i in bad:
        raise ValueError(i)
    return i


# {5, 7} fail in the parent's and the first child's first jobs; {5, 2} fail in
# the parent's first job and in a job after it, from the queue
@pytest.mark.parametrize("bad", [{5, 7}, {7, 4}, {5, 2}, {0, 5, 7, 10}], ids=str)
@pytest.mark.parametrize("workers", [2, 3])
def test_error_is_the_serial_runs_first(forks, workers, bad):
    jobs = [functools.partial(failing, bad, i) for i in range(len(COSTS))]
    with pytest.raises(ValueError) as serial:
        _fork.run_units(jobs, COSTS, 1)
    assert forks[0] == 0
    with pytest.raises(ValueError) as split:
        _fork.run_units(jobs, COSTS, workers)
    assert split.value.args == serial.value.args == (min(bad),)
    assert forks[0] == workers - 1
    assert_no_child_left()


def test_a_queue_longer_than_a_pipe_holds(forks):
    count = 20_000  # 80 000 bytes of queue entries; a pipe buffer holds 65 536
    jobs = [functools.partial(int, i) for i in range(count)]
    assert _fork.run_units(jobs, [1] * count, 2) == list(range(count))
    assert forks[0] == 1
    assert_no_child_left()


def test_failed_fork_closes_the_queue(monkeypatch, tmp_path):
    real_fork = os.fork
    calls = [0]

    def second_fails():
        calls[0] += 1
        if calls[0] == 2:
            raise BlockingIOError(errno.EAGAIN, "no process left")
        return real_fork()

    monkeypatch.setattr(os, "fork", second_fails)
    log = tmp_path / "log"
    jobs = [logged(log, i, 0.05) for i in range(20)]
    with pytest.raises(BlockingIOError):
        _fork.run_units(jobs, [1] * len(jobs), 3)
    assert calls[0] == 2
    assert_no_child_left()
    # the child made first ran its first job, job 1, and stopped long before the queue's end
    lines = ran(log)
    assert lines[0][0] == 1 and lines[0][1] != os.getpid()
    assert len(lines) < len(jobs) // 2


def test_interrupt_in_the_parent_closes_the_queue(tmp_path):
    parent = os.getpid()
    log = tmp_path / "log"

    def job(i):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return logged(log, i, 0.05)()

    jobs = [functools.partial(job, i) for i in range(20)]
    with pytest.raises(KeyboardInterrupt):
        _fork.run_units(jobs, [1] * len(jobs), 2)
    assert_no_child_left()
    # the child ran its first job, job 1, and stopped long before the queue's end
    lines = ran(log)
    assert lines[0][0] == 1 and lines[0][1] != parent
    assert len(lines) < len(jobs) // 2


def refuse():
    raise ValueError("cannot decode")


class Undecodable:
    """A result that pickles in the child but cannot be unpickled."""

    def __reduce__(self):
        return refuse, ()


def test_a_reply_that_cannot_be_decoded_is_raised_after_every_child_is_reaped(forks):
    # job 7 is the first child's first job at W = 3; the other child's reply decodes
    jobs = [functools.partial(lambda i: Undecodable() if i == 7 else i, i) for i in range(len(COSTS))]
    with pytest.raises(ValueError, match="cannot decode"):
        _fork.run_units(jobs, COSTS, 3)
    assert forks[0] == 2
    assert_no_child_left()
