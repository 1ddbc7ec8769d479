"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. The randomized grids here are the full-size ones; the
module takes about 20 s on a 2-core machine, most of it criterion 2.
"""
import json
import time

import numpy as np
import pytest

import cyclicpd as cp
import looped_oracle as oracle
from cyclicpd import inequalities as ineq
from cyclicpd import search
from cyclicpd import verify as vf
from cyclicpd.cli import main

SLACK = 1e-9


def report(num: int, ok: bool, desc: str):
    print(f"ACCEPTANCE criterion {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_1_fixture_reproduction():
    t0 = time.time()
    rep = cp.reproduce_counterexample()
    eigs = np.asarray(rep.detail["eigs"])
    elapsed = time.time() - t0
    ok = (
        np.allclose(eigs, [2.6393 - 0.1871j, 2.6393 + 0.1871j], atol=1e-3)
        and abs(rep.detail["trace"] - 5.2786) <= 1e-3
        and elapsed < 1.0
    )
    report(1, ok, f"eigenvalues {eigs} trace {rep.detail['trace']:.4f} in {elapsed:.3f}s")


def test_criterion_2_unconditional_suite():
    t0 = time.time()
    out = vf.run_suites("unconditional", range(1, 7), range(3, 9), 1000, 20240817)["unconditional"]
    bad = [r for r in out.records if r.failures]
    elapsed = time.time() - t0
    report(
        2,
        not bad,
        f"{len(out.records)} grid records, {sum(r.trials for r in out.records)} checks, "
        f"{len(bad)} failing records in {elapsed:.0f}s",
    )


def test_criterion_3_exact_identities():
    out = vf.run_suites("identities", [2, 3], [3, 5], 50, 7)["identities"]
    totals, fails = {}, {}
    for r in out.records:
        totals[r.check] = totals.get(r.check, 0) + r.trials
        fails[r.check] = fails.get(r.check, 0) + r.failures
    ok = all(v >= 200 for v in totals.values()) and not any(fails.values())
    report(3, ok, f"instances per identity {totals}, failures {fails}")


def test_criterion_4_scalar_oracle_equivalence():
    rng = np.random.default_rng(100)
    worst = 0.0
    for p in range(3, 15):
        for _ in range(1000):
            s = np.exp(rng.uniform(-3, 3, p))
            matrix_val = float(ineq.cyclic_traces(oracle.diagonal_embed(s, 1)))
            scalar_val = cp.scalar_cyclic_sum(s)
            worst = max(worst, abs(matrix_val - scalar_val) / (1 + abs(scalar_val)))
    report(4, worst <= 1e-12, f"max relative gap {worst:.3g} over 12000 tuples")


def test_criterion_5_gradient_check():
    from cyclicpd.search import _margin_value

    rng = np.random.default_rng(200)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 4))
        p = int(rng.integers(3, 7))
        ridge = 1e-8
        factors = [np.eye(n) + 0.4 * rng.standard_normal((n, n)) for _ in range(p)]
        grads = cp.margin_gradient(factors, ridge)
        h = 1e-5
        for j in range(p):
            for a in range(n):
                for b in range(n):
                    fp = [f.copy() for f in factors]
                    fm = [f.copy() for f in factors]
                    fp[j][a, b] += h
                    fm[j][a, b] -= h
                    fd = (_margin_value(fp, ridge) - _margin_value(fm, ridge)) / (2 * h)
                    worst = max(worst, abs(fd - grads[j][a, b]) / (1 + abs(fd)))
    report(5, worst <= 1e-6, f"max relative FD deviation {worst:.3g} over 100 instances")


def test_criterion_6_counterexample_rediscovery():
    t0 = time.time()
    res = cp.minimize_margin(cp.SearchConfig(p=14, n=1, restarts=32, master_seed=11))
    elapsed = time.time() - t0
    scalars = res.best_family[:, 0, 0]
    lifted = oracle.diagonal_embed(scalars, 3)
    lifted_value = search._recheck_trace(lifted)
    recheck = ineq.batch_shapiro_trace(lifted[None]).report()
    ok = (
        res.best_margin < 0
        and res.classification == "verified_counterexample"
        and lifted_value < 21.0
        and not recheck.holds
        and elapsed < 300.0
    )
    report(
        6, ok,
        f"p=14 margin {res.best_margin:.3g}, lifted n=3 value {lifted_value:.6f} < 21, "
        f"{elapsed:.0f}s",
    )


def test_criterion_7_theorem_respect():
    worst = 0.0
    for p in (3, 4):
        for n in (1, 2):
            res = cp.minimize_margin(
                cp.SearchConfig(p=p, n=n, restarts=8, max_iters=600, master_seed=21))
            worst = min(worst, res.best_margin)
            assert res.best_margin >= -SLACK, f"p={p} n={n} margin {res.best_margin}"
    report(7, worst >= -SLACK, f"worst margin over p in {{3,4}}, n in {{1,2}}: {worst:.3g}")


def test_criterion_8_conjecture_probe():
    lines = []
    ok = True
    for p in ineq.OPEN_P:
        for n in (1, 2, 3):
            res = cp.minimize_margin(cp.SearchConfig(p=p, n=n, restarts=6, max_iters=600, master_seed=31))
            assert res.classification
            lines.append(f"p={p} n={n}: {res.best_margin:.3g} [{res.classification}]")
            if n == 1 and res.best_margin < -SLACK:
                ok = False
            if res.classification == "verified_counterexample":
                lines.append(f"CONJECTURE-RELEVANT EVENT at p={p}, n={n}")
    report(8, ok, "; ".join(lines))


def test_criterion_9_determinism(tmp_path):
    def run(cmdargs, path):
        assert main(cmdargs + ["--out", str(path)]) == 0
        doc = json.loads(path.read_text())
        doc.pop("started", None)
        doc.pop("elapsed_ms", None)
        return doc

    search_args = ["search", "--p", "5", "--n", "2", "--restarts", "4",
                   "--max-iters", "150", "--seed", "13"]
    verify_args = ["verify", "--suite", "all", "--dims", "1..2", "--p", "3..4",
                   "--trials", "5", "--seed", "17"]
    s1 = run(search_args, tmp_path / "s1.json")
    s2 = run(search_args, tmp_path / "s2.json")
    v1 = run(verify_args, tmp_path / "v1.json")
    v2 = run(verify_args, tmp_path / "v2.json")
    ok = s1 == s2 and v1 == v2
    report(9, ok, "search and verify JSON identical across re-runs")
