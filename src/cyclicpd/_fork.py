"""Run independent jobs split across forked processes, with the serial result.

``verify`` splits its grid and ``search`` its restarts through
:func:`run_units`, into the number of processes that :func:`workers_for`
picks from the run's work: one per CPU and per unit, but no more than the
work repays.
"""
from __future__ import annotations

import os
import pickle
import threading

# Work below which one more process costs more than it saves. Work is counted
# in search block-iterations: a search's is restarts x p x n**2 x max_iters,
# and ``verify`` weights its grid into the same unit. Measured with
# ``tools/bench_kernel.py`` (its fork layer) on a 2-core x86_64 machine.
FLOOR = 200_000


def cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def workers_for(work, units: int, cpus: int) -> int:
    """W = min(cpus, units, max(1, floor(work / FLOOR))): the processes a run
    of ``units`` jobs and ``work`` in all is split into."""
    return min(cpus, units, max(1, int(work // FLOOR)))


def run_units(jobs, costs, workers: int) -> list:
    """Call every job and return their results in job order.

    With W = min(workers, jobs) above 1, the jobs are sorted by descending cost
    and dealt round-robin into W shares. The parent runs share 0 itself; each
    other share runs in a child made by ``os.fork``, which sends its results
    back through a pipe. A share runs its jobs in job order and stops at the
    first error, so the error of the lowest-numbered job that raised is the one
    a serial run would have raised first; it is raised once every child has
    been read and reaped. Without ``os.fork``, at W = 1, or when other Python
    threads are running (a fork copies no thread but the caller's), the jobs
    run in order in this process.
    """
    workers = min(workers, len(jobs))
    if workers <= 1 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [job() for job in jobs]
    order = sorted(range(len(jobs)), key=lambda i: (-costs[i], i))
    shares = [sorted(order[w::workers]) for w in range(workers)]
    children = []
    try:
        for share in shares[1:]:
            children.append(_fork_share(jobs, share))
        ran = [_run_share(jobs, shares[0])]
    finally:
        # read and reap every child, also when a fork failed or the parent was interrupted
        replies = [_reap(*child) for child in children]
    ran += [_decode(*reply) for reply in replies]
    results, errors = [None] * len(jobs), []
    for share, (done, error) in zip(shares, ran):
        for i, result in zip(share, done):
            results[i] = result
        if error is not None:
            errors.append((share[len(done)], error))
    if errors:
        raise min(errors, key=lambda e: e[0])[1]
    return results


def _run_share(jobs, share):
    """Run the share's jobs in order until one raises: (results so far, error or None)."""
    done = []
    try:
        for i in share:
            done.append(jobs[i]())
    except Exception as exc:  # handed to the parent, which raises it in serial order
        return done, exc
    return done, None


def _fork_share(jobs, share):
    """Run a share in a forked child; returns (pid, read end of its result pipe)."""
    rfd, wfd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(rfd)
        os.close(wfd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(rfd)
            done, error = _run_share(jobs, share)
            try:
                data = pickle.dumps((done, error))
            except Exception as exc:  # an unpicklable error or result
                data = pickle.dumps((done, RuntimeError(f"worker could not send its result: {exc!r}")))
            with os.fdopen(wfd, "wb") as fh:
                fh.write(data)
            status = 0
        finally:
            # never return into the parent's code
            os._exit(status)
    os.close(wfd)
    return pid, rfd


def _reap(pid, rfd):
    """Read a child's pipe to the end, then reap the child: (pid, bytes, wait status)."""
    with os.fdopen(rfd, "rb") as fh:
        data = fh.read()
    return pid, data, os.waitpid(pid, 0)[1]


def _decode(pid, data, status):
    """A child's (results, error); an error if it ended without sending them."""
    if not data:
        return [], RuntimeError(f"worker {pid} ended without a result "
                                f"(exit code {os.waitstatus_to_exitcode(status)})")
    return pickle.loads(data)  # bytes written by this module's child
