"""The benchmark's workloads: the cyclicpd commands each one runs, and the
checks each command's JSON output must pass.

Every command's ``--seed`` is drawn from the workload seed, so one workload
seed fixes every input. A pass runs the command list once; passes repeat
until the run's time is up, and every pass does the same work.

Why these workloads (they stress different layers of the same program):

- ``verify-grid`` spends its time in ``pdcore`` sampling and the
  ``inequalities`` checkers, from n = 1 (Python call overhead dominates) to
  n = 6 (LAPACK dominates); ``search`` does no work.
- ``search-scalar`` is the p = 14 scalar rediscovery: all time is in
  ``search`` on 1x1 arrays, so per-call overhead dominates and the restart
  thread pool is engaged. ``--max-iters 50`` keeps every restart on its full
  budget; at the default budget about a third of restarts stop early, which
  makes the work per command depend on the seed.
- ``search-matrix`` is the open p = 23 case on 3x3 blocks: the same layer,
  but 23 solves per evaluation, so LAPACK work dominates and a scalar-only
  fast path is bypassed.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

# Checker names of each verify suite, as the records carry them.
UNCONDITIONAL_FIXED = (
    "trace_product", "weighted_cs", "cs_trace", "eigineq1", "nesbitt",
    "upper_bound_2ab", "wz_certificate", "s4_decomposition", "bidirectional_eig4",
)
UNCONDITIONAL_FAMILY = (
    "harmonic_loewner", "block_certificate", "product_sum_eigs", "nesbitt_k",
    "shapiro_extension", "bidirectional", "square_cycle",
)
IDENTITY_FIXED = ("s4_identity", "two_ab_identity", "wz_identities")
FIELDS = ("real", "complex")
# The conditional trace bound is a theorem at p in {3, 4} for every n, and at
# n = 1 for every p this grid reaches (p <= 8), so no event may appear there.
THEOREM_P = (3, 4)
CLASSIFICATIONS = {"no_counterexample_found", "numerical_noise", "candidate", "verified_counterexample"}
MARGIN_RTOL = 1e-9


@dataclass(frozen=True)
class Command:
    argv: tuple
    check: object  # (doc, program) -> (work units, [problems])


@dataclass
class Workload:
    name: str
    unit: str  # what one unit of work is, for the throughput metric
    commands: list = field(default_factory=list)


def _command_seeds(name: str, seed: int, count: int) -> list[int]:
    rng = random.Random(f"{name}:{seed}")
    return [rng.randrange(2**31) for _ in range(count)]


def verify_grid(seed: int) -> Workload:
    dims, ps, trials = range(1, 7), range(3, 9), 4
    argv = ("verify", "--suite", "all", "--dims", "1..6", "--p", "3..8",
            "--field", "both", "--trials", str(trials))
    check = lambda doc, program: check_verify(doc, dims, ps, trials)  # noqa: E731
    wl = Workload("verify-grid", "checker evaluations")
    for s in _command_seeds(wl.name, seed, 1):
        wl.commands.append(Command(argv + ("--seed", str(s)), check))
    return wl


def _search(name: str, seed: int, p: int, n: int, restarts: int, max_iters: int, count: int) -> Workload:
    argv = ("search", "--p", str(p), "--n", str(n), "--restarts", str(restarts),
            "--max-iters", str(max_iters))
    check = lambda doc, program: check_search(doc, program, p, n, restarts, max_iters)  # noqa: E731
    wl = Workload(name, "accepted descent iterations")
    for s in _command_seeds(name, seed, count):
        wl.commands.append(Command(argv + ("--seed", str(s)), check))
    return wl


def search_scalar(seed: int) -> Workload:
    return _search("search-scalar", seed, p=14, n=1, restarts=8, max_iters=50, count=2)


def search_matrix(seed: int) -> Workload:
    return _search("search-matrix", seed, p=23, n=3, restarts=4, max_iters=100, count=2)


WORKLOADS = {
    "verify-grid": verify_grid,
    "search-scalar": search_scalar,
    "search-matrix": search_matrix,
}


def expected_verify_records(dims, ps, trials: int) -> dict:
    """suite -> {(check, n, p, field): trials} that a verify --suite all run must report.

    ``square_cycle_identities`` pools one family per p into each trial.
    """
    unconditional, identities, conditional = {}, {}, {}
    for n in dims:
        for fld in FIELDS:
            unconditional.update(((c, n, 0, fld), trials) for c in UNCONDITIONAL_FIXED)
            identities.update(((c, n, 0, fld), trials) for c in IDENTITY_FIXED)
            identities[("square_cycle_identities", n, 0, fld)] = trials * len(ps)
            for p in ps:
                unconditional.update(((c, n, p, fld), trials) for c in UNCONDITIONAL_FAMILY)
                identities[("extension_identity", n, p, fld)] = trials
                conditional[("shapiro_trace", n, p, fld)] = trials
    return {"unconditional": unconditional, "identities": identities, "conditional": conditional}


def check_verify(doc: dict, dims, ps, trials: int):
    """Work is the summed ``trials`` of every record of every suite."""
    problems = []
    results = doc.get("results", {})
    work = 0
    for suite, expected in expected_verify_records(dims, ps, trials).items():
        outcome = results.get(suite)
        if outcome is None:
            problems.append(f"suite {suite} missing")
            continue
        seen = {(r["check"], r["n"], r["p"], r["field"]): r["trials"] for r in outcome["records"]}
        work += sum(seen.values())
        if seen.keys() != expected.keys():
            problems.append(f"{suite}: {len(expected.keys() - seen.keys())} records missing, "
                            f"{len(seen.keys() - expected.keys())} unexpected")
        wrong = [k for k, t in seen.items() if k in expected and t != expected[k]]
        if wrong:
            problems.append(f"{suite}: {len(wrong)} records with the wrong trial count, e.g. {wrong[0]}")
        if suite != "conditional" and outcome["unconditional_failures"]:
            problems.append(f"{suite}: {outcome['unconditional_failures']} failures")
    for ev in results.get("conditional", {}).get("events", []):
        if ev["n"] == 1 or ev["p"] in THEOREM_P:
            problems.append(f"conditional event where a theorem holds: n={ev['n']} p={ev['p']}")
    return work, problems


def check_search(doc: dict, program, p: int, n: int, restarts: int, max_iters: int):
    """Re-evaluate the reported family independently; work is ``iterations_used``."""
    problems = []
    res = doc["results"]
    fam = program.serialize.family_from_dict(res["best_family"])
    if (fam.p, fam.dim) != (p, n):
        problems.append(f"best_family has p={fam.p} n={fam.dim}, expected p={p} n={n}")
        return 0, problems
    margin = res["best_margin"]
    fp = program.inequalities.cyclic_sum_trace(fam)
    if abs(fp - p * n / 2.0 - margin) > MARGIN_RTOL * (1.0 + abs(fp)):
        problems.append(f"best_margin {margin!r} but the family evaluates to {fp - p * n / 2.0!r}")
    if n == 1:
        scalar = program.search.scalar_cyclic_sum([m.mat[0, 0] for m in fam.members])
        if abs(scalar - p / 2.0 - margin) > MARGIN_RTOL * (1.0 + abs(scalar)):
            problems.append(f"best_margin {margin!r} but the scalar oracle gives {scalar - p / 2.0!r}")
    if res["classification"] not in CLASSIFICATIONS:
        problems.append(f"unknown classification {res['classification']!r}")
    if res["classification"] == "verified_counterexample" and not margin < 0:
        problems.append(f"verified_counterexample with margin {margin!r}")
    iters = res["iterations_used"]
    if not 0 < iters <= restarts * max_iters:
        problems.append(f"iterations_used {iters} outside (0, {restarts * max_iters}]")
    return iters, problems
