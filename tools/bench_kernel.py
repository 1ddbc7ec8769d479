"""Kernel, checker, suite, count and fork layers: microseconds of the search's
``_margin_value`` plus ``margin_gradient`` per descent iteration and of one
``cyclic_traces`` call, microseconds per trial of each ``batch_`` checker,
the wall time of each verify suite and of all three in one process, the
calls a verify grid and one call of each checker make, and the wall time of
whole searches and verify grids in one process against two.

Runs ``search._descend`` in this process (no fork) on the starting factors of
a seeded search, with both kernels wrapped in a timer, for each (n, p, R)
case, and prints one JSON document: per case the median over ``--runs`` runs
of kernel time per accepted iteration, of the whole descent's time and of
the kernels' share of it (kernel time / descent time), and the iterations.
Then, for each (T, p, n) trace case, it times ``cyclic_traces`` on T real
families drawn as verify draws them: the median over ``--runs`` runs of the
mean µs per call, and the largest relative difference from the trace sums
of one batched LAPACK solve. Which ``cyclicpd`` it measures is
the one ``import cyclicpd`` finds, so two checkouts compare by their
``PYTHONPATH``.

The checker layer times every checker of the verify tables (the unconditional
suite's and ``shapiro_trace``) on one stack of T = 512 trials, for n in
{1, 3, 6} and both fields, on operands drawn and mapped to arguments as the
unconditional suite does (``verify._fixed_args``), with p = 8 for the family
checkers. Each call gets plain arrays, so it computes every intermediate
itself. Per (checker, n, field): the median over ``--runs`` runs of the µs
and of the cal per trial.

The suite layer times ``run_suites("all")``, which ``verify-grid`` runs,
and ``run_suites`` of each suite alone, in this process (W = 1, no fork) on
the grid of the benchmark's verify-grid workload (n 1..6, p 3..8, 4 trials,
both fields): the median milliseconds and cal of each over ``--runs`` runs.
The suites share work when run together, so the three alone do not add up
to ``all``.

The count layer runs ``run_suites`` on the same grid at W = 1 under
cProfile, for ``all`` and for each suite alone, after one unprofiled run
that fills the module's caches: the total calls cProfile sees (Python
functions and the built-ins they call) and the calls of each ``np.linalg``
routine in ``LINALG_COUNTED``. Then, per (checker, n, field), it counts the
calls of one call of each checker at the grid's chunk shape (T = 4 trials,
n in {1, 3, 6}, p = 8 for the family checkers), on plain arrays drawn as the
checker layer draws them, after one unprofiled call. The counts are exact
for a given tree and seed, so a difference between two trees is a fact, not
a median.

The fork layer times ``minimize_margin`` for each (p, n, R, iterations)
search case and ``run_suites`` for each verify grid, in this process, at
W = 1 and at W = 2 (the fork rule replaced by W = min(that, units)), in
``--pairs`` alternating pairs. Per case it gives the work that
``_fork.workers_for`` weighs, the W the rule picks at 2 CPUs, the median
milliseconds at each W, and their ratio.

Each timed run (a descent, a run of ``cyclic_traces`` calls, a suite, a
fork case's run) is also reported in calibration units, as the benchmark
reports its passes: the run's time over the mean time of the benchmark's
``Calibration`` batch (``perfbench/run.py``, imported by path) taken just
before and just after it. One ``cal`` is one run of that batch, so medians
in ``cal`` cancel most of the drift in machine speed that medians in ms show
on a shared host.

    PYTHONPATH=src python tools/bench_kernel.py --runs 20
    PYTHONPATH=src python tools/bench_kernel.py --layer checker --runs 5
    PYTHONPATH=src python tools/bench_kernel.py --layer suite --runs 9
    PYTHONPATH=src python tools/bench_kernel.py --layer count
    PYTHONPATH=src python tools/bench_kernel.py --layer fork --pairs 10
"""
from __future__ import annotations

import argparse
import cProfile
import importlib.util
import json
import pstats
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import cyclicpd
from cyclicpd import _fork, inequalities, search, verify
from cyclicpd.pdcore import random_pd_stack

# (n, p, restarts); the last is the scalar rediscovery at the default restarts (search --p 14 --n 1)
CASES = [(3, 23, 2), (3, 23, 4), (2, 12, 2), (2, 12, 4), (1, 14, 32)]
TRACE_CASES = [(4, 3, 2), (4, 8, 3), (512, 8, 3)]
TRACE_ROWS = 2048  # families per timed run: 512 calls at T = 4, 4 at T = 512
# (p, n, restarts, iterations); the first is one command of the benchmark's search-matrix
FORK_SEARCHES = [(23, 3, 4, 100), (23, 3, 8, 200), (23, 3, 32, 200),
                 (12, 3, 32, 300), (12, 2, 32, 300), (14, 1, 32, 300)]
# name -> (dims, p values, trials) of a verify --suite all --field both run
FORK_GRIDS = {"tiny": ([1], [3], 1), "verify-grid": (list(range(1, 7)), list(range(3, 9)), 4)}
# the checker layer's trials per stack, family size and (n, field) cases
CHECKER_TRIALS, CHECKER_P = 512, 8
CHECKER_CASES = [(n, field) for n in (1, 3, 6) for field in ("real", "complex")]
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# the np.linalg routines whose calls the count layer reports
LINALG_COUNTED = ("eigh", "eigvalsh", "solve", "inv", "eigvals")


def load_calibration():
    """The benchmark's ``Calibration`` batch, from ``perfbench/run.py`` imported
    by path; run.py imports its sibling modules by name, so their directory
    goes on the path first."""
    sys.path.insert(0, str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module.Calibration(np)


def calibrated(batch, fn):
    """(seconds, cal, result) of one call of ``fn``: cal is its seconds over the
    mean time of the calibration ``batch`` run just before and just after it."""
    before = batch()
    t0 = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - t0
    return wall, wall / ((before + batch()) / 2.0), result


def four_digits(x: float) -> float:
    return float(f"{x:.4g}")


def timed(fn, spent):
    def wrapper(factors, ridge):
        t0 = time.perf_counter()
        try:
            return fn(factors, ridge)
        finally:
            spent[0] += time.perf_counter() - t0
    return wrapper


def run_case(n: int, p: int, restarts: int, iters: int, seed: int, batch):
    """(kernel s, descent s, descent cal, iterations) of one in-process descent."""
    cfg = search.SearchConfig(p=p, n=n, restarts=restarts, max_iters=iters, master_seed=seed)
    start = search._initial_factors(cfg)
    spent = [0.0]
    kernels = search._margin_value, search.margin_gradient
    search._margin_value, search.margin_gradient = (timed(fn, spent) for fn in kernels)
    try:
        wall, cals, (_, _, _, done) = calibrated(batch, lambda: search._descend(cfg, start))
    finally:
        search._margin_value, search.margin_gradient = kernels
    return spent[0], wall, cals, int(done.sum())


def trace_case(trials: int, p: int, n: int, runs: int, seed: int, batch):
    """(median µs per ``cyclic_traces`` call, median cal per run of
    ``TRACE_ROWS`` families, largest relative difference from LAPACK) on one
    (trials, p, n, n) real stack."""
    mats = random_pd_stack(n, trials, p, np.random.default_rng(seed))
    terms = np.linalg.solve(inequalities.cyclic_denominators(mats), mats)
    lapack = inequalities._sum_over_p(np.trace(terms, axis1=-2, axis2=-1))
    rel = float(np.max(np.abs(inequalities.cyclic_traces(mats) - lapack) / np.abs(lapack)))
    calls = -(-TRACE_ROWS // trials)

    def run():
        for _ in range(calls):
            inequalities.cyclic_traces(mats)

    timings = [calibrated(batch, run) for _ in range(runs)]
    return (statistics.median(w for w, _, _ in timings) / calls * 1e6,
            statistics.median(c for _, c, _ in timings), rel)


def with_rule(rule, fn):
    """fn() with ``rule(work, units)`` in place of the fork rule in search and verify."""
    saved = search.workers_for, verify.workers_for
    search.workers_for = verify.workers_for = lambda work, units, cpus: rule(work, units)
    try:
        return fn()
    finally:
        search.workers_for, verify.workers_for = saved


def fork_case(fn, pairs: int, batch):
    """W = 1 against W = 2 for one run ``fn``: the work the rule weighs, the W
    it picks at 2 CPUs, and the median ms and cal at each W over ``pairs``
    pairs, the pair's order alternating."""
    asked = []

    def rule(work, units):
        asked.append((work, _fork.workers_for(work, units, 2)))
        return asked[-1][1]

    with_rule(rule, fn)
    ms, cals = {1: [], 2: []}, {1: [], 2: []}
    for k in range(pairs):
        for workers in ((1, 2) if k % 2 == 0 else (2, 1)):
            wall, c, _ = calibrated(batch, lambda: with_rule(lambda work, units: min(workers, units), fn))
            ms[workers].append(wall * 1e3)
            cals[workers].append(c)
    w1, w2 = statistics.median(ms[1]), statistics.median(ms[2])
    return {"work": asked[0][0], "rule_workers": asked[0][1], "ms_w1": round(w1, 1), "ms_w2": round(w2, 1),
            "cal_w1": four_digits(statistics.median(cals[1])), "cal_w2": four_digits(statistics.median(cals[2])),
            "ratio_w2_w1": round(w2 / w1, 2),
            "pairs_w2_faster": sum(b < a for a, b in zip(ms[1], ms[2]))}


def fork_layer(pairs: int, seed: int, batch) -> dict:
    out = {"floor": _fork.FLOOR, "pairs": pairs, "searches": [], "verify_grids": []}
    for p, n, restarts, iters in FORK_SEARCHES:
        cfg = search.SearchConfig(p=p, n=n, restarts=restarts, max_iters=iters, master_seed=seed)
        out["searches"].append({"p": p, "n": n, "restarts": restarts, "iterations": iters,
                                **fork_case(lambda: search.minimize_margin(cfg), pairs, batch)})
    for name, (dims, ps, trials) in FORK_GRIDS.items():
        run = lambda: verify.run_suites("all", dims, ps, trials, seed)  # noqa: E731
        out["verify_grids"].append({"grid": name, "dims": dims, "p": ps, "trials": trials,
                                    **fork_case(run, pairs, batch)})
    return out


def checker_args(n: int, field: str, trials: int, rng) -> dict:
    """{checker: arguments} of every checker of the verify tables on one draw
    of ``trials`` trials, mapped as the unconditional suite maps them, as
    plain arrays, so no call reads what an earlier one cached."""
    drawn = random_pd_stack(n, trials, 4, rng, field, gaussian_tail=2)
    fams = random_pd_stack(n, trials, CHECKER_P, rng, field)
    args = {w: getattr(a, "mats", a) for w, a in verify._fixed_args(drawn).items()}
    calls = {name: [args[w] for w in words.split()] for name, words in verify.UNCONDITIONAL_FIXED}
    calls.update((name, [fams]) for name in verify.UNCONDITIONAL_FAMILY + ("shapiro_trace",))
    return calls


def checker_layer(runs: int, seed: int, batch) -> dict:
    out = {"trials": CHECKER_TRIALS, "p": CHECKER_P, "runs": runs, "cases": []}
    rng = np.random.default_rng(seed)
    for n, field in CHECKER_CASES:
        for name, ops in checker_args(n, field, CHECKER_TRIALS, rng).items():
            fn = getattr(inequalities, f"batch_{name}")
            timings = [calibrated(batch, lambda: fn(*ops)) for _ in range(runs)]
            out["cases"].append({
                "checker": name, "n": n, "field": field,
                "us_per_trial": round(statistics.median(w for w, _, _ in timings) / CHECKER_TRIALS * 1e6, 2),
                "cal_per_trial": four_digits(statistics.median(c for _, c, _ in timings) / CHECKER_TRIALS),
            })
    return out


def serial_suites(suite: str, seed: int):
    """``run_suites(suite)`` on the verify-grid grid in this process (W = 1)."""
    dims, ps, trials = FORK_GRIDS["verify-grid"]
    return with_rule(lambda work, units: 1, lambda: verify.run_suites(suite, dims, ps, trials, seed))


def suite_layer(runs: int, seed: int, batch) -> dict:
    dims, ps, trials = FORK_GRIDS["verify-grid"]
    out = {"dims": dims, "p": ps, "trials": trials, "runs": runs}
    for name in ("all",) + verify.SUITES:
        timings = [calibrated(batch, lambda: serial_suites(name, seed)) for _ in range(runs)]
        out[f"{name}_ms"] = round(statistics.median(w for w, _, _ in timings) * 1e3, 1)
        out[f"{name}_cal"] = four_digits(statistics.median(c for _, c, _ in timings))
    return out


def counted(fn, *args):
    """(total calls, {np.linalg routine: calls}) that cProfile sees in fn(*args)."""
    prof = cProfile.Profile()
    prof.runcall(fn, *args)
    stats = pstats.Stats(prof)
    linalg = dict.fromkeys(LINALG_COUNTED, 0)
    for (path, _, func), (_, calls, *_) in stats.stats.items():
        if func in linalg and Path(path).parent.name == "linalg":
            linalg[func] += calls
    return stats.total_calls, linalg


def count_layer(seed: int) -> dict:
    dims, ps, trials = FORK_GRIDS["verify-grid"]
    out = {"dims": dims, "p": ps, "trials": trials, "seed": seed}
    serial_suites("all", seed)  # fill the lru caches, whose misses cProfile counts
    for name in ("all",) + verify.SUITES:
        calls, linalg = counted(serial_suites, name, seed)
        out[name] = {"calls": calls, "linalg": linalg}
    out["checkers"] = {"trials": trials, "p": CHECKER_P, "cases": []}
    rng = np.random.default_rng(seed)
    for n, field in CHECKER_CASES:
        for name, ops in checker_args(n, field, trials, rng).items():
            fn = getattr(inequalities, f"batch_{name}")
            fn(*ops)
            calls, _ = counted(fn, *ops)
            out["checkers"]["cases"].append({"checker": name, "n": n, "field": field, "calls": calls})
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=20)
    ap.add_argument("--iters", type=int, default=100)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--layer", choices=["kernel", "checker", "suite", "count", "fork", "all"], default="all")
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    batch = load_calibration()
    out = {"cyclicpd": cyclicpd.__file__, "numpy": np.__version__}
    if args.layer in ("fork", "all"):
        out["fork"] = fork_layer(args.pairs, args.seed, batch)
    if args.layer in ("checker", "all"):
        out["checker"] = checker_layer(args.runs, args.seed, batch)
    if args.layer in ("suite", "all"):
        out["suite"] = suite_layer(args.runs, args.seed, batch)
    if args.layer in ("count", "all"):
        out["count"] = count_layer(args.seed)
    if args.layer not in ("kernel", "all"):
        print(json.dumps(out, indent=1))
        return 0
    out["cases"] = []
    for n, p, restarts in CASES:
        runs = [run_case(n, p, restarts, args.iters, args.seed, batch) for _ in range(args.runs)]
        iters = runs[0][3]
        out["cases"].append({
            "n": n, "p": p, "restarts": restarts, "iterations": iters,
            "kernel_us_per_iteration": round(statistics.median(k for k, _, _, _ in runs) / iters * 1e6, 1),
            "descend_ms": round(statistics.median(w for _, w, _, _ in runs) * 1e3, 2),
            "descend_cal": four_digits(statistics.median(c for _, _, c, _ in runs)),
            "kernel_share": round(statistics.median(k / w for k, w, _, _ in runs), 3),
        })
    out["trace_cases"] = []
    for trials, p, n in TRACE_CASES:
        us, cals, rel = trace_case(trials, p, n, args.runs, args.seed, batch)
        out["trace_cases"].append({"trials": trials, "p": p, "n": n, "us_per_call": round(us, 1),
                                   "cal_per_run": four_digits(cals), "max_rel_diff_from_lapack": rel})
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
