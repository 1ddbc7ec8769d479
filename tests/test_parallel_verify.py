"""verify.run_suites split over forked workers: the same outcome, failures,
events, witnesses and errors at every worker count as the serial in-process
loop (W = 1), no fork for a grid below the fork rule's floor, and no child
left behind. The grids are small, so the tests of the split lower the floor
until every unit (one n, all the asked suites) could have a process of its own."""
import dataclasses
import errno
import os
import threading

import numpy as np
import pytest

from cyclicpd import inequalities as ineq
from cyclicpd import _fork, verify
from cyclicpd.cli import main
from cyclicpd.errors import NotPositiveDefinite
from cyclicpd.pdcore import REL_TOL

SUITES = ("all", "unconditional", "identities", "conditional")


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
    """A fork floor under any grid's work: W = min(CPUs, units)."""
    monkeypatch.setattr(_fork, "FLOOR", 1)


def run_at(monkeypatch, workers, *args, **kwargs):
    monkeypatch.setattr(verify, "_cpu_count", lambda: workers)
    return verify.run_suites(*args, **kwargs)


def as_dicts(results):
    return {name: oc.to_dict() for name, oc in results.items()}


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("suite", SUITES)
@pytest.mark.parametrize("dims, p_values, trials, fields", [
    ([1, 2, 3, 4], [3, 5, 8], 3, ("real", "complex")),
    ([5, 1, 3], [4, 3, 7], 2, ("complex",)),
    ([1], [3], verify.TRIALS_PER_STACK + 3, ("real",)),
])
def test_same_outcome_at_every_worker_count(monkeypatch, forks, low_floor, suite, dims, p_values, trials, fields):
    serial = run_at(monkeypatch, 1, suite, dims, p_values, trials, 4, fields=fields)
    assert forks[0] == 0
    want = as_dicts(serial)
    # the units rebuild what one unsplit walk over all of dims gives
    unsplit = verify._walk(tuple(serial), dims, p_values, trials, 4, REL_TOL, fields)
    assert want == as_dicts(unsplit)
    units = len(dims)  # one unit per n, whatever the suites
    for workers in (2, 3):
        forks[0] = 0
        got = run_at(monkeypatch, workers, suite, dims, p_values, trials, 4, fields=fields)
        assert forks[0] == min(workers, units) - 1
        assert list(got) == list(serial)
        assert as_dicts(got) == want
    assert_no_child_left()


def test_failures_events_and_witnesses_in_serial_order(monkeypatch, forks, low_floor):
    """Some trials at several (n, p) violate the trace bound: failures where a
    theorem covers (n, p), events elsewhere, each with its witness family."""
    real = ineq.batch_shapiro_trace
    failing = {(1, 3), (1, 14), (2, 5), (3, 3), (3, 14), (4, 5)}

    def some_fail(fams, rel):
        batch = real(fams, rel)
        n, p = fams.mats.shape[-1], fams.mats.shape[-3]
        if (n, p) not in failing:
            return batch
        return dataclasses.replace(batch, holds=np.floor(batch.margin * 1e6) % 2 == 0)

    monkeypatch.setattr(ineq, "batch_shapiro_trace", some_fail)
    args = ("conditional", [1, 2, 3, 4], [3, 5, 14], 5, 8)
    want = as_dicts(run_at(monkeypatch, 1, *args))["conditional"]
    assert want["unconditional_failures"] > 0 and len(want["events"]) > 1
    assert any("witness" in r for r in want["records"])
    for workers in (2, 3):
        got = as_dicts(run_at(monkeypatch, workers, *args))["conditional"]
        assert got == want
    assert forks[0] == 1 + 2
    assert_no_child_left()


def raise_at(monkeypatch, bad_dims):
    """batch_square_cycle (identities suite) raises at the given dimensions."""
    real = ineq.batch_square_cycle

    def raising(fams, rel):
        n = fams.mats.shape[-1]
        if n in bad_dims:
            raise NotPositiveDefinite(-n)
        return real(fams, rel)

    monkeypatch.setattr(ineq, "batch_square_cycle", raising)


# At W = 2, identities over dims [1, 2, 3] puts n = 3 and n = 1 in the parent's
# share and n = 2 in the child's; a share runs in serial order, n = 1 first.
@pytest.mark.parametrize("bad_dims", [{2}, {3}, {2, 3}, {1, 2}, {1, 3}])
def test_error_is_the_serial_runs_first(monkeypatch, forks, low_floor, bad_dims):
    raise_at(monkeypatch, bad_dims)
    args = ("identities", [1, 2, 3], [3, 5], 2, 3)
    with pytest.raises(NotPositiveDefinite) as serial:
        run_at(monkeypatch, 1, *args)
    assert serial.value.min_eig == -min(bad_dims)
    for workers in (2, 3):
        with pytest.raises(NotPositiveDefinite) as split:
            run_at(monkeypatch, workers, *args)
        assert str(split.value) == str(serial.value)
        assert split.value.min_eig == serial.value.min_eig
        assert_no_child_left()
    assert forks[0] == 1 + 2


def test_child_that_ends_without_a_result(monkeypatch, forks, low_floor):
    parent = os.getpid()
    real = ineq.batch_square_cycle

    def dying(fams, rel):
        if os.getpid() != parent:
            os._exit(3)
        return real(fams, rel)

    monkeypatch.setattr(ineq, "batch_square_cycle", dying)
    with pytest.raises(RuntimeError, match=r"ended without a result \(exit code 3\)"):
        run_at(monkeypatch, 2, "identities", [1, 2], [3], 2, 3)
    assert forks[0] == 1
    assert_no_child_left()


def test_unpicklable_error_in_a_child(monkeypatch, forks, low_floor):
    """At W = 2, identities over dims [1, 2] runs n = 1 in the child."""
    class Unpicklable(Exception):
        pass  # a local class cannot be pickled by reference

    real = ineq.batch_square_cycle

    def raising(fams, rel):
        if fams.mats.shape[-1] == 1:
            raise Unpicklable("local")
        return real(fams, rel)

    monkeypatch.setattr(ineq, "batch_square_cycle", raising)
    with pytest.raises(RuntimeError, match="could not send its result"):
        run_at(monkeypatch, 2, "identities", [1, 2], [3], 2, 3)
    assert forks[0] == 1
    assert_no_child_left()


def test_failed_fork_reaps_the_children_already_made(monkeypatch, low_floor):
    real_fork = os.fork
    calls = [0]

    def second_fails():
        calls[0] += 1
        if calls[0] == 2:
            raise BlockingIOError(errno.EAGAIN, "no process left")
        return real_fork()

    monkeypatch.setattr(os, "fork", second_fails)
    with pytest.raises(BlockingIOError):
        run_at(monkeypatch, 3, "identities", [1, 2, 3], [3], 2, 3)
    assert calls[0] == 2
    assert_no_child_left()


@pytest.mark.parametrize("hide_fork", [True, False])
def test_serial_without_fork_or_with_other_threads(monkeypatch, forks, low_floor, hide_fork):
    args = ("all", [1, 2], [3, 4], 2, 5)
    want = as_dicts(run_at(monkeypatch, 1, *args))
    stop = threading.Event()
    worker = threading.Thread(target=stop.wait, args=(10,))
    if hide_fork:
        monkeypatch.delattr(os, "fork")
    else:
        worker.start()
    try:
        got = as_dicts(run_at(monkeypatch, 2, *args))
    finally:
        stop.set()
        if worker.is_alive():
            worker.join(timeout=10)
    assert not worker.is_alive()
    assert forks[0] == 0
    assert got == want


def test_cli_output_equal_across_worker_counts(monkeypatch, low_floor, tmp_path):
    argv = ["verify", "--suite", "all", "--dims", "1..3", "--p", "3..5", "--trials", "3", "--seed", "2"]
    texts = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(verify, "_cpu_count", lambda: workers)
        out = tmp_path / f"w{workers}.json"
        assert main(argv + ["--out", str(out)]) == 0
        text = out.read_text()
        texts.append(text[text.index('"results"'):])  # past the timestamps
    assert texts[0] == texts[1] == texts[2]
    assert_no_child_left()


@pytest.mark.parametrize("dims, p_values, trials, want", [
    ([1], [3], 1, 0),  # a fork costs more than the three tiny units take
    (list(range(1, 7)), list(range(3, 9)), 4, 1),  # the benchmark's verify-grid command
], ids=["tiny", "verify-grid"])
def test_grid_forks_by_its_work(monkeypatch, forks, dims, p_values, trials, want):
    run_at(monkeypatch, 2, "all", dims, p_values, trials, 6)
    assert forks[0] == want
    assert_no_child_left()
