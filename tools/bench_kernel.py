"""Kernel, checker, suite, count, fork and CLI layers: microseconds of the
search's kernels per descent iteration and of one ``cyclic_traces`` call,
microseconds per trial of each ``batch_`` checker, the wall time of each
verify suite and of all three in one process, the calls a verify grid and
one call of each checker make, the wall time of whole searches and verify
grids in one process against two, and the time of whole commands, in this
process and in a fresh one.

Runs ``search._descend`` in this process (no fork) on the starting factors of
a seeded search, with the kernels it calls (``KERNELS``: the trial
evaluation, the S_i^{-1} it keeps and the gradient of the matrix objective
and, at n = 1, of the scalar one) wrapped in a timer that counts only the
outermost of nested kernel calls, for each (n, p, R, iterations) case, and
prints one JSON document: per case the median over ``--runs`` runs of kernel
time per accepted iteration, of the bookkeeping time per accepted iteration
(descent time minus kernel time: the line search's gathers, masks and
records), of the whole descent's time and of the kernels' share of it
(kernel time / descent time), of the minor page faults per accepted
iteration (this process's ``resource.getrusage(RUSAGE_SELF).ru_minflt``,
read just before and just after each timed descent), and the iterations.
A descent that reuses its memory reads 0 faults per iteration; one whose
arrays go back to the system and are faulted in again reads one or more:
the case at p = 23, n = 3, R = 32 read 3.3 (about 100 per lockstep step of
its 32 restarts) on a 2-core host, where every other case read 0.
Then, for each (T, p, n) trace case, it times ``cyclic_traces`` on T real
families drawn as verify draws them: the median over ``--runs`` runs of the
mean µs per call, and the largest relative difference from the trace sums
of one batched LAPACK solve. Which ``cyclicpd`` it measures is
the one ``import cyclicpd`` finds, so two checkouts compare by their
``PYTHONPATH``.

The checker layer times every checker of ``inequalities.CHECKS`` on one
stack of T = 512 trials, for n in {1, 3, 6} and both fields, on operands
drawn and mapped to arguments as the unconditional suite does
(``verify.checker_args``), with p = 8 for the family checkers. Each call
gets plain arrays, so it computes every intermediate itself. Per (checker,
n, field): the median over ``--runs`` runs of the µs and of the cal per
trial.

The suite layer times ``run_suites("all")``, which ``verify-grid`` runs,
and ``run_suites`` of each suite alone, in this process (W = 1, no fork) on
each grid of ``SUITE_GRIDS``: the benchmark's verify-grid workload's (n
1..6, p 3..8, 4 trials, both fields) and the default ``verify`` command's
(n 1..3, p 3..6, 100 trials, both fields), whose chunks are 25 times as
tall, so a change that saves per-chunk calls shows on the first and one
that saves per-row work on the second. Per grid: the median milliseconds
and cal of each over ``--runs`` runs. The suites share work when run
together, so the three alone do not add up to ``all``.

The count layer runs ``run_suites`` on the same two grids at W = 1 under
cProfile, for ``all`` and for each suite alone, after one unprofiled run of
the grid that fills the module's caches: per grid, the total calls cProfile
sees (Python functions and the built-ins they call) and the calls of each
``np.linalg`` routine in ``LINALG_COUNTED``. It does the same for
``minimize_margin`` on the two benchmark search commands
(``COUNT_SEARCHES``), and adds the calls of the functions that form each
iterate's A_i (``FORMING``): ``search._mats_from_factors`` and
``inequalities._cofactors``, which forms the S_i cofactors, on the matrix
objective, and ``search._scalar_trial`` on the scalar one. Then, per
(checker, n, field), it counts the calls of one call of each checker at the
verify-grid grid's chunk shape (T = 4 trials, n in {1, 3, 6}, p = 8 for the
family checkers), on plain arrays drawn as the checker layer draws them,
after one unprofiled call. The counts are exact
for a given tree and seed, so a difference between two trees is a fact, not
a median.

The fork layer times ``minimize_margin`` for each (p, n, R, iterations)
search case and ``run_suites`` for each verify grid (``FORK_GRIDS``: a tiny
one, the benchmark's verify-grid and the default ``verify`` command's
n 1..3, p 3..6, 100 trials), in this process, at
W = 1 and at W = 2 (the fork rule replaced by W = min(that, units)), in
``--pairs`` alternating pairs. Per case it gives the work that
``_fork.workers_for`` weighs, the W the rule picks at 2 CPUs, the median
milliseconds at each W, and their ratio.

The CLI layer runs each benchmark workload's first command (its argv from
``perfbench/workloads.py`` at ``--seed``, with ``--out`` into a temporary
directory) through ``cli.main`` in this process, after one untimed call:
per command the median over ``--runs`` calls of the µs and cal of one call,
of the µs spent in ``cli.build_parser`` and of the µs in ``parse_args``
(whichever of the two runs first after the calibration batch meets its cold
caches: a parse that takes about 0.1 ms warm then takes about 0.35 ms), for
a search command of the µs in ``search._descend`` (``descend_us``: where the
search forks, the parent's own share), the
W that the fork rule picks for those timed calls at this process's CPUs
(``workers``: where it is above 1 they time the parent, which waits for its
children), and the calls cProfile sees in one call at W = 1 (``calls``: the
fork rule replaced by W = 1, so a command that would fork is counted whole,
in this process, as the count layer counts). Then it times a fresh
``python -m cyclicpd`` process, from its start to its exit after the JSON
is written, for ``reproduce --case all`` and the search-scalar command: the
median ms and cal over ``--runs`` processes, which import the same
``cyclicpd`` as this one. Each timed command writes a fresh ``--out`` file,
removed before the calibration batch that precedes it, as the benchmark
removes it before each command: rewriting an existing file costs a truncate
that the benchmark never pays.

Each timed run (a descent, a run of ``cyclic_traces`` calls, a suite, a
fork case's run) is also reported in calibration units, as the benchmark
reports its passes: the run's time over the mean time of the benchmark's
``Calibration`` batch (``perfbench/run.py``, imported by path) taken just
before and just after it. One ``cal`` is one run of that batch, so medians
in ``cal`` cancel most of the drift in machine speed that medians in ms show
on a shared host.

    PYTHONPATH=src python tools/bench_kernel.py --runs 20
    PYTHONPATH=src python tools/bench_kernel.py --layer kernel --runs 3
    PYTHONPATH=src python tools/bench_kernel.py --layer checker --runs 5
    PYTHONPATH=src python tools/bench_kernel.py --layer suite --runs 9
    PYTHONPATH=src python tools/bench_kernel.py --layer count
    PYTHONPATH=src python tools/bench_kernel.py --layer fork --pairs 10
    PYTHONPATH=src python tools/bench_kernel.py --layer cli --runs 20
"""
from __future__ import annotations

import argparse
import cProfile
import importlib.util
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr
from pathlib import Path

import numpy as np

import cyclicpd
from cyclicpd import _fork, cli, inequalities, search, verify
from cyclicpd.pdcore import random_pd_stack

# (n, p, restarts, iterations), None for --iters: (1, 14, 32) is the scalar
# rediscovery at the default restarts (search --p 14 --n 1), (1, 14, 8, 50)
# one command of the benchmark's search-scalar workload, and the last the
# open case's default restarts in one process, whose descent page-faults
CASES = [(3, 23, 2, None), (3, 23, 4, None), (2, 12, 2, None), (2, 12, 4, None), (1, 14, 32, None),
         (1, 14, 8, 50), (3, 23, 32, 200)]
TRACE_CASES = [(4, 3, 2), (4, 8, 3), (512, 8, 3)]
TRACE_ROWS = 2048  # families per timed run: 512 calls at T = 4, 4 at T = 512
# (p, n, restarts, iterations); the first is one command of the benchmark's
# search-matrix, the last two scalar searches at the default budget
FORK_SEARCHES = [(23, 3, 4, 100), (23, 3, 8, 200), (23, 3, 32, 200),
                 (12, 3, 32, 300), (12, 2, 32, 300), (14, 1, 32, 300), (14, 1, 32, 3000), (23, 1, 32, 3000)]
# name -> (dims, p values, trials) of a verify --suite all --field both run:
# "verify-default" is the default verify command's grid, "verify-grid" the benchmark's
FORK_GRIDS = {"tiny": ([1], [3], 1), "verify-grid": (list(range(1, 7)), list(range(3, 9)), 4),
              "verify-default": ([1, 2, 3], [3, 4, 5, 6], 100)}
# the grids the suite and count layers run: the benchmark's, where a chunk
# holds 4 trials, and the users' default, where it holds 100
SUITE_GRIDS = ("verify-grid", "verify-default")
# the checker layer's trials per stack, family size and (n, field) cases
CHECKER_TRIALS, CHECKER_P = 512, 8
CHECKER_CASES = [(n, field) for n in (1, 3, 6) for field in ("real", "complex")]
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# the np.linalg routines whose calls the count layer reports
LINALG_COUNTED = ("eigh", "eigvalsh", "solve", "inv", "eigvals")
# name -> (p, n, restarts, iterations) of the benchmark's search commands, at master_seed --seed
COUNT_SEARCHES = {"search-scalar": (14, 1, 8, 50), "search-matrix": (23, 3, 4, 100)}
# the search functions the count layer counts, as (module, name): the matrix
# objective's, then the scalar objective's
FORMING = (("search", "_mats_from_factors"), ("inequalities", "_cofactors"), ("search", "_scalar_trial"))
# the commands the CLI layer times in a fresh process, besides the search-scalar one
PROCESS_ARGVS = [("reproduce", "--case", "all")]
# what the descent calls to evaluate its iterates, in the search module: the
# matrix objective's trial, kept inverses and gradient, and the scalar
# objective's
KERNELS = ("_trial", "_kept_inverses", "_gradient", "_scalar_trial", "_scalar_inverses", "_scalar_gradient")


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
    """``fn`` adding its seconds to spent[0], unless it runs inside another
    timed call (spent[1] is then set), whose time holds it already."""
    def wrapper(*args, **kwargs):
        if spent[1]:
            return fn(*args, **kwargs)
        spent[1] = True
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[0] += time.perf_counter() - t0
            spent[1] = False
    return wrapper


def run_case(n: int, p: int, restarts: int, iters: int, seed: int, batch):
    """(kernel s, descent s, descent cal, iterations, minor page faults) of one
    in-process descent."""
    cfg = search.SearchConfig(p=p, n=n, restarts=restarts, max_iters=iters, master_seed=seed)
    start = search._initial_factors(cfg)
    spent = [0.0, False]
    faults = [0]
    kernels = {name: getattr(search, name) for name in KERNELS}

    def descend():
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        result = search._descend(cfg, start)
        faults[0] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        return result

    for name, fn in kernels.items():
        setattr(search, name, timed(fn, spent))
    try:
        wall, cals, (_, _, _, done) = calibrated(batch, descend)
    finally:
        for name, fn in kernels.items():
            setattr(search, name, fn)
    return spent[0], wall, cals, int(done.sum()), faults[0]


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
    """{checker: arguments} of every checker of ``inequalities.CHECKS`` on one
    draw of ``trials`` trials, mapped as the unconditional suite maps them, as
    plain arrays, so no call reads what an earlier one cached."""
    drawn = random_pd_stack(n, trials, 4, rng, field, gaussian_tail=2)
    fams = random_pd_stack(n, trials, CHECKER_P, rng, field)
    return verify.checker_args(drawn, fams, plain=True)


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


def serial_suites(suite: str, seed: int, grid: str):
    """``run_suites(suite)`` on the ``FORK_GRIDS`` grid ``grid`` in this process (W = 1)."""
    dims, ps, trials = FORK_GRIDS[grid]
    return with_rule(lambda work, units: 1, lambda: verify.run_suites(suite, dims, ps, trials, seed))


def suite_layer(runs: int, seed: int, batch) -> dict:
    out = {"runs": runs, "grids": {}}
    for grid in SUITE_GRIDS:
        dims, ps, trials = FORK_GRIDS[grid]
        case = out["grids"][grid] = {"dims": dims, "p": ps, "trials": trials}
        for name in ("all",) + verify.SUITES:
            timings = [calibrated(batch, lambda: serial_suites(name, seed, grid)) for _ in range(runs)]
            case[f"{name}_ms"] = round(statistics.median(w for w, _, _ in timings) * 1e3, 1)
            case[f"{name}_cal"] = four_digits(statistics.median(c for _, c, _ in timings))
    return out


def counted(fn, *args, functions=()):
    """(total calls, {np.linalg routine: calls}, {"module.name": calls}) that
    cProfile sees in fn(*args), the last for each ``cyclicpd`` (module, name)
    of ``functions``. It reads the profiler's own entries, one per code
    object: pstats keys them by (file, line, name), and every dataclass
    ``__init__`` is compiled at ``<string>`` line 2, so there all but one of
    them would be dropped."""
    prof = cProfile.Profile()
    prof.runcall(fn, *args)
    entries = prof.getstats()
    linalg = dict.fromkeys(LINALG_COUNTED, 0)
    own = {f"{module}.{name}": 0 for module, name in functions}
    for entry in entries:
        if isinstance(entry.code, str):  # a built-in
            continue
        path, func = Path(entry.code.co_filename), entry.code.co_name
        if func in linalg and path.parent.name == "linalg":
            linalg[func] += entry.callcount
        key = f"{path.stem}.{func}"
        if key in own and path.parent.name == "cyclicpd":
            own[key] += entry.callcount
    return sum(entry.callcount for entry in entries), linalg, own


def count_layer(seed: int) -> dict:
    out = {"seed": seed, "grids": {}}
    for grid in SUITE_GRIDS:
        dims, ps, trials = FORK_GRIDS[grid]
        case = out["grids"][grid] = {"dims": dims, "p": ps, "trials": trials}
        serial_suites("all", seed, grid)  # fill the lru caches, whose misses cProfile counts
        for name in ("all",) + verify.SUITES:
            calls, linalg, _ = counted(serial_suites, name, seed, grid)
            case[name] = {"calls": calls, "linalg": linalg}
    out["searches"] = {}
    for name, (p, n, restarts, iters) in COUNT_SEARCHES.items():
        cfg = search.SearchConfig(p=p, n=n, restarts=restarts, max_iters=iters, master_seed=seed)
        run = lambda: with_rule(lambda work, units: 1, lambda: search.minimize_margin(cfg))  # noqa: E731
        run()
        calls, linalg, own = counted(run, functions=FORMING)
        out["searches"][name] = {"p": p, "n": n, "restarts": restarts, "iterations": iters,
                                 "calls": calls, **own, "linalg": linalg}
    trials = FORK_GRIDS["verify-grid"][2]
    out["checkers"] = {"trials": trials, "p": CHECKER_P, "cases": []}
    rng = np.random.default_rng(seed)
    for n, field in CHECKER_CASES:
        for name, ops in checker_args(n, field, trials, rng).items():
            fn = getattr(inequalities, f"batch_{name}")
            fn(*ops)
            calls, _, _ = counted(fn, *ops)
            out["checkers"]["cases"].append({"checker": name, "n": n, "field": field, "calls": calls})
    return out


def cli_commands(seed: int, out: str) -> dict:
    """workload -> the argv of its first command at ``seed``, writing to ``out``;
    ``perfbench/workloads.py`` is importable once ``load_calibration`` has run."""
    from workloads import WORKLOADS
    return {name: [*make(seed).commands[0].argv, "--out", out] for name, make in WORKLOADS.items()}


def fresh(path: str, batch, fn):
    """``calibrated(batch, fn)`` of a command that writes ``path``, removed
    first: the benchmark writes each command's output to a fresh file."""
    Path(path).unlink(missing_ok=True)
    return calibrated(batch, fn)


def cli_layer(runs: int, seed: int, batch) -> dict:
    out = {"runs": runs, "seed": seed, "commands": [], "processes": []}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.json")
        commands = cli_commands(seed, path)
        for name, argv in commands.items():
            build, parse, descend = [0.0, False], [0.0, False], [0.0, False]
            build_parser, parse_args = cli.build_parser, argparse.ArgumentParser.parse_args
            _descend = search._descend
            cli.build_parser = timed(build_parser, build)
            argparse.ArgumentParser.parse_args = timed(parse_args, parse)
            search._descend = timed(_descend, descend)
            samples, picked = [], []

            def rule(work, units):
                picked.append(_fork.workers_for(work, units, _fork.cpu_count()))
                return picked[-1]

            try:
                with redirect_stderr(io.StringIO()):
                    with_rule(rule, lambda: cli.main(argv))
                    for _ in range(runs):
                        build[0] = parse[0] = descend[0] = 0.0
                        wall, cals, _ = fresh(path, batch, lambda: cli.main(argv))
                        samples.append((wall, cals, build[0], parse[0], descend[0]))
                    calls, _, _ = counted(with_rule, lambda work, units: 1, lambda: cli.main(argv))
            finally:
                cli.build_parser, argparse.ArgumentParser.parse_args, search._descend = (
                    build_parser, parse_args, _descend)
            out["commands"].append({
                "workload": name, "argv": " ".join(argv[:-2]),
                "main_us": round(statistics.median(s[0] for s in samples) * 1e6, 1),
                "main_cal": four_digits(statistics.median(s[1] for s in samples)),
                "build_parser_us": round(statistics.median(s[2] for s in samples) * 1e6, 1),
                "parse_args_us": round(statistics.median(s[3] for s in samples) * 1e6, 1),
                **({"descend_us": round(statistics.median(s[4] for s in samples) * 1e6, 1)}
                   if argv[0] == "search" else {}),
                "workers": max(picked, default=1), "calls": calls,
            })
        src = str(Path(cyclicpd.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        path = os.path.join(tmp, "process.json")
        for argv in [*PROCESS_ARGVS, commands["search-scalar"][:-2]]:
            cmd = [sys.executable, "-m", "cyclicpd", *argv, "--out", path]
            timings = [fresh(path, batch, lambda: subprocess.run(cmd, env=env, check=True, capture_output=True))
                       for _ in range(runs)]
            out["processes"].append({
                "argv": " ".join(argv),
                "ms": round(statistics.median(w for w, _, _ in timings) * 1e3, 1),
                "cal": four_digits(statistics.median(c for _, c, _ in timings)),
            })
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=20)
    ap.add_argument("--iters", type=int, default=100)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--layer", choices=["kernel", "checker", "suite", "count", "fork", "cli", "all"], default="all")
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
    if args.layer in ("cli", "all"):
        out["cli"] = cli_layer(args.runs, args.seed, batch)
    if args.layer not in ("kernel", "all"):
        print(json.dumps(out, indent=1))
        return 0
    out["cases"] = []
    for n, p, restarts, max_iters in CASES:
        runs = [run_case(n, p, restarts, max_iters or args.iters, args.seed, batch) for _ in range(args.runs)]
        iters = runs[0][3]
        out["cases"].append({
            "n": n, "p": p, "restarts": restarts, "iterations": iters,
            "kernel_us_per_iteration": round(statistics.median(k for k, _, _, _, _ in runs) / iters * 1e6, 1),
            "bookkeeping_us_per_iteration": round(statistics.median(w - k for k, w, _, _, _ in runs) / iters * 1e6, 1),
            "descend_ms": round(statistics.median(w for _, w, _, _, _ in runs) * 1e3, 2),
            "descend_cal": four_digits(statistics.median(c for _, _, c, _, _ in runs)),
            "kernel_share": round(statistics.median(k / w for k, w, _, _, _ in runs), 3),
            "minor_faults_per_iteration": round(statistics.median(f for _, _, _, _, f in runs) / iters, 1),
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
