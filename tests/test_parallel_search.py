"""search.minimize_margin split over forked workers: the same result, dropped
restarts, tie-breaks and errors at every worker count as the serial lockstep
descent (W = 1), no fork for a search below the fork rule's floor, and no
child left behind. The configs are small, so the tests of the split lower the
floor until every restart could have a process of its own."""
import os
import threading

import numpy as np
import pytest

import cyclicpd as cp
from cyclicpd import _fork, search
from cyclicpd.cli import main
from cyclicpd.errors import NotPositiveDefinite

CONFIGS = [
    cp.SearchConfig(p=3, n=3, restarts=5, max_iters=150, master_seed=1),  # uneven stops, one past 100
    cp.SearchConfig(p=5, n=2, restarts=4, max_iters=250, master_seed=9),  # past the gauge fix
    cp.SearchConfig(p=12, n=2, restarts=5, max_iters=40, master_seed=4),
    cp.SearchConfig(p=23, n=3, restarts=3, max_iters=30, master_seed=11),
]


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
    """A fork floor under any search's work: W = min(CPUs, restarts)."""
    monkeypatch.setattr(_fork, "FLOOR", 1)


def run_at(monkeypatch, workers, cfg):
    monkeypatch.setattr(search, "_cpu_count", lambda: workers)
    return cp.minimize_margin(cfg)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def start_with(monkeypatch, init):
    monkeypatch.setattr(search, "_initial_factors", lambda cfg: init)


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: f"p{c.p}-n{c.n}-r{c.restarts}-i{c.max_iters}")
def test_same_result_at_every_worker_count(monkeypatch, forks, low_floor, cfg):
    want = run_at(monkeypatch, 1, cfg).to_dict()
    assert forks[0] == 0
    for workers in (2, 3, cfg.restarts + 2):
        forks[0] = 0
        assert run_at(monkeypatch, workers, cfg).to_dict() == want
        assert forks[0] == min(workers, cfg.restarts) - 1
    assert_no_child_left()


@pytest.mark.parametrize("poison", ["nan", "singular"])
def test_diverging_restart_in_a_child_dropped_alone(monkeypatch, forks, low_floor, poison):
    """At W = 2 the last restart is in the child's share, at W = 3 in the last child's."""
    cfg = CONFIGS[1]
    clean_init = search._initial_factors(cfg)
    _, margins, _, iters = search._descend(cfg, clean_init)
    bad = cfg.restarts - 1
    init = clean_init.copy()
    if poison == "nan":
        init[bad, 0, 0, 0] = np.nan
    else:
        init[bad] = 1e10  # A_i = L L^T + ridge*I rounds to a rank-one matrix
    start_with(monkeypatch, init)
    want = run_at(monkeypatch, 1, cfg)
    survivors = range(bad)
    assert want.restart_index == min(survivors, key=lambda r: (margins[r], r))
    assert want.iterations_used == sum(int(iters[r]) for r in survivors)
    for workers in (2, 3):
        got = run_at(monkeypatch, workers, cfg)
        assert got.to_dict() == want.to_dict()
    assert forks[0] == 1 + 2
    assert_no_child_left()


def test_all_restarts_diverged(monkeypatch, forks, low_floor):
    cfg = cp.SearchConfig(p=4, n=2, restarts=3, max_iters=10)
    start_with(monkeypatch, np.full((3, 4, 2, 2), np.nan))
    for workers in (1, 2, 3):
        with pytest.raises(RuntimeError, match="all restarts diverged"):
            run_at(monkeypatch, workers, cfg)
    assert forks[0] == 1 + 2
    assert_no_child_left()


def test_tie_across_shares_goes_to_the_lower_index(monkeypatch, forks, low_floor):
    """Every restart starts from the same factors, so all margins tie."""
    cfg = CONFIGS[1]
    one = search._initial_factors(cfg)[2]
    start_with(monkeypatch, np.stack([one] * cfg.restarts))
    want = run_at(monkeypatch, 1, cfg)
    assert want.restart_index == 0
    for workers in (2, 3, 4):
        assert run_at(monkeypatch, workers, cfg).to_dict() == want.to_dict()
    assert forks[0] == 1 + 2 + 3
    assert_no_child_left()


def test_error_in_a_child_reaches_the_caller(monkeypatch, forks, low_floor):
    """The gradient raises on the last restart, which no W > 1 gives the parent."""
    cfg = CONFIGS[1]
    marked = search._initial_factors(cfg)[-1]
    real = search.margin_gradient

    def raising(factors, ridge):
        if any(np.array_equal(f, marked) for f in factors):
            raise NotPositiveDefinite(-7.0)
        return real(factors, ridge)

    monkeypatch.setattr(search, "margin_gradient", raising)
    with pytest.raises(NotPositiveDefinite) as serial:
        run_at(monkeypatch, 1, cfg)
    for workers in (2, 3):
        with pytest.raises(NotPositiveDefinite) as split:
            run_at(monkeypatch, workers, cfg)
        assert str(split.value) == str(serial.value)
        assert split.value.min_eig == serial.value.min_eig
        assert_no_child_left()
    assert forks[0] == 1 + 2


def test_scalar_search_below_the_floor_makes_no_fork(monkeypatch, forks):
    """The benchmark's search-scalar config."""
    cfg = cp.SearchConfig(p=14, n=1, restarts=8, max_iters=50, master_seed=11)
    want = run_at(monkeypatch, 1, cfg).to_dict()
    assert run_at(monkeypatch, 2, cfg).to_dict() == want
    assert forks[0] == 0


@pytest.mark.parametrize("argv, want", [
    # the benchmark's search-matrix command: two shares of two restarts cost
    # more together than one stack of four
    (["--p", "23", "--n", "3", "--restarts", "4", "--max-iters", "100"], 0),
    (["--p", "12", "--n", "3", "--restarts", "32", "--max-iters", "300"], 1),
], ids=["search-matrix", "p12-n3-r32"])
def test_matrix_search_forks_by_its_work(monkeypatch, forks, tmp_path, argv, want):
    monkeypatch.setattr(search, "_cpu_count", lambda: 2)
    assert main(["search", *argv, "--seed", "11", "--out", str(tmp_path / "s.json")]) == 0
    assert forks[0] == want
    assert_no_child_left()


@pytest.mark.parametrize("hide_fork", [True, False])
def test_serial_without_fork_or_with_other_threads(monkeypatch, forks, low_floor, hide_fork):
    cfg = CONFIGS[2]
    want = run_at(monkeypatch, 1, cfg).to_dict()
    stop = threading.Event()
    worker = threading.Thread(target=stop.wait, args=(10,))
    if hide_fork:
        monkeypatch.delattr(os, "fork")
    else:
        worker.start()
    try:
        got = run_at(monkeypatch, 2, cfg).to_dict()
    finally:
        stop.set()
        if worker.is_alive():
            worker.join(timeout=10)
    assert not worker.is_alive()
    assert forks[0] == 0
    assert got == want
