"""Kernel layer of the search: microseconds of ``_margin_value`` plus
``margin_gradient`` per descent iteration.

Runs ``search._descend`` in this process (no fork) on the starting factors of
a seeded search, with both kernels wrapped in a timer, for each (n, p, R)
case, and prints one JSON document: per case the median over ``--runs`` runs
of kernel time per accepted iteration, of the whole descent's time, and the
iterations. Which ``cyclicpd`` it measures is the one ``import cyclicpd``
finds, so two checkouts compare by their ``PYTHONPATH``:

    PYTHONPATH=src python tools/bench_kernel.py --runs 20
"""
from __future__ import annotations

import argparse
import json
import statistics
import time

import numpy as np

import cyclicpd
from cyclicpd import search

CASES = [(3, 23, 2), (3, 23, 4), (2, 12, 2), (2, 12, 4)]


def timed(fn, spent):
    def wrapper(factors, ridge):
        t0 = time.perf_counter()
        try:
            return fn(factors, ridge)
        finally:
            spent[0] += time.perf_counter() - t0
    return wrapper


def run_case(n: int, p: int, restarts: int, iters: int, seed: int):
    """(kernel s, descent s, iterations) of one in-process descent."""
    cfg = search.SearchConfig(p=p, n=n, restarts=restarts, max_iters=iters, master_seed=seed)
    start = search._initial_factors(cfg)
    spent = [0.0]
    kernels = search._margin_value, search.margin_gradient
    search._margin_value, search.margin_gradient = (timed(fn, spent) for fn in kernels)
    try:
        t0 = time.perf_counter()
        _, _, _, done = search._descend(cfg, start)
        wall = time.perf_counter() - t0
    finally:
        search._margin_value, search.margin_gradient = kernels
    return spent[0], wall, int(done.sum())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=20)
    ap.add_argument("--iters", type=int, default=100)
    ap.add_argument("--seed", type=int, default=11)
    args = ap.parse_args(argv)
    out = {"cyclicpd": cyclicpd.__file__, "numpy": np.__version__, "cases": []}
    for n, p, restarts in CASES:
        runs = [run_case(n, p, restarts, args.iters, args.seed) for _ in range(args.runs)]
        iters = runs[0][2]
        out["cases"].append({
            "n": n, "p": p, "restarts": restarts, "iterations": iters,
            "kernel_us_per_iteration": round(statistics.median(k for k, _, _ in runs) / iters * 1e6, 1),
            "descend_ms": round(statistics.median(w for _, w, _ in runs) * 1e3, 2),
        })
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
