"""Run independent jobs split across forked processes, with the serial result.

``verify`` splits its grid and ``search`` its restarts through
:func:`run_units`, into the number of processes that :func:`workers_for`
picks from the run's work: one per CPU and per unit, but no more than the
work repays. The processes balance themselves: each starts on one of the
costliest jobs and then takes the next job of a shared queue, longest first
(Graham's list scheduling), so how the work splits follows each process's
actual speed, not the jobs' cost estimates.
"""
from __future__ import annotations

import os
import pickle
import tempfile
import threading

# Work below which one more process costs more than it saves. Work is counted
# in search block-iterations: a search's is restarts x p x n**2 x max_iters,
# and ``verify`` weights its grid into the same unit. Measured with
# ``tools/bench_kernel.py`` (its fork layer) on a 2-core x86_64 machine.
FLOOR = 200_000
# Bytes of one queue entry, a job index.
ENTRY = 4


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
    """Call every job once and return their results in job order.

    With W = min(workers, jobs) above 1, the jobs are ordered by descending
    cost, ties by index. Worker w starts on job w of that order: the parent is
    worker 0, and each other worker is a child made by ``os.fork``, which
    sends its results back through a pipe. Then each worker takes the next job
    of the queue until it is empty. The queue is an unlinked file of the
    remaining job indices whose read offset the workers share, so each read
    takes the next entry atomically, whatever the number of jobs; truncating
    the file closes it. A failed fork, or an exception or interrupt in the
    parent, closes the queue, so each child stops after its current job and is
    reaped.

    A worker whose job raised skips the later-numbered jobs it takes, whose
    results no longer matter; the lowest-numbered job that raised, the one a
    serial run would have raised first, is raised once every child has been
    read and reaped. Without ``os.fork``, at W = 1, or when other Python
    threads are running (a fork copies no thread but the caller's), the jobs
    run in order in this process.
    """
    workers = min(workers, len(jobs))
    if workers <= 1 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [job() for job in jobs]
    order = sorted(range(len(jobs)), key=lambda i: (-costs[i], i))
    children = []
    with tempfile.TemporaryFile() as queue:
        queue.write(b"".join(i.to_bytes(ENTRY, "little") for i in order[workers:]))
        queue.seek(0)  # flushes the entries
        try:
            for w in range(1, workers):
                children.append(_fork_worker(jobs, order[w], queue.fileno()))
            ran = [_run_worker(jobs, order[0], queue.fileno())]
        finally:
            # close the queue, then read and reap every child, also when a
            # fork failed or the parent was interrupted
            queue.truncate(0)
            replies = [_reap(first, *child) for first, child in zip(order[1:], children)]
    ran += replies
    results, errors = [None] * len(jobs), []
    for done, error in ran:
        for i, result in done.items():
            results[i] = result
        if error is not None:
            errors.append(error)
    if errors:
        raise min(errors, key=lambda e: e[0])[1]
    return results


def _run_worker(jobs, first, queue):
    """Run job ``first``, then the queue's jobs until it is empty or closed:
    ({index: result}, (index, error) of the lowest-numbered job that raised, or None)."""
    done, error, i = {}, None, first
    while i is not None:
        if error is None or i < error[0]:
            try:
                done[i] = jobs[i]()
            except Exception as exc:  # handed to the parent, which raises it in serial order
                error = i, exc
        entry = os.read(queue, ENTRY)
        i = int.from_bytes(entry, "little") if entry else None
    return done, error


def _fork_worker(jobs, first, queue):
    """Run a worker in a forked child; returns (pid, read end of its result pipe)."""
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
            done, error = _run_worker(jobs, first, queue)
            try:
                data = pickle.dumps((done, error))
            except Exception as exc:  # an unpicklable error or result
                at = error[0] if error else min(done)
                data = pickle.dumps(({}, (at, RuntimeError(f"worker could not send its result: {exc!r}"))))
            with os.fdopen(wfd, "wb") as fh:
                fh.write(data)
            status = 0
        finally:
            # never return into the parent's code
            os._exit(status)
    os.close(wfd)
    return pid, rfd


def _reap(first, pid, rfd):
    """Read a child's pipe to the end and decode it, then reap the child: its
    ({index: result}, (index, error) or None), with an error at its first
    job if it ended without sending them or they could not be decoded.
    Decoding before the wait overlaps it with the child's exit."""
    with os.fdopen(rfd, "rb") as fh:
        data = fh.read()
    reply = None
    if data:
        try:
            reply = pickle.loads(data)  # bytes written by this module's child
        except Exception as exc:  # raised once every child is reaped
            reply = {}, (first, exc)
    status = os.waitpid(pid, 0)[1]
    if reply is None:
        return {}, (first, RuntimeError(f"worker {pid} ended without a result "
                                        f"(exit code {os.waitstatus_to_exitcode(status)})"))
    return reply
