"""Randomized verification suites over a (dimension, family-size, field) grid.

Three suites:
  unconditional - every theorem-backed checker must hold on all draws.
  identities    - the exact algebraic identities inside the proofs, to 1e-10.
  conditional   - the trace bound Tr-sum >= p*n/2. Where a theorem covers it
                  (p in {3, 4} for every n, and n = 1 with p in
                  ``SCALAR_VALID_P``) a violation is a suite failure; elsewhere
                  it is recorded as a counterexample event, never as a failure.

Aggregation is per grid point: trial count, failure count, worst margin, and
a serialized witness for the first failure (or event). Each grid point has
its own seeded stream. All of a grid point's trials are drawn from it in one
stacked draw, which takes the same numbers in the same order as one draw per
matrix would, and every checker then evaluates the whole (T, ...) stack at
once through its ``batch_`` kernel. Results therefore depend neither on
scheduling nor on how the trials are grouped.

The checkers of one stack share one :class:`~cyclicpd.inequalities.StackContext`
per family stack and per fixed operand, so A_i^{-1}, sum A_i, sum A_i^{-1},
(sum A_i)^{-1}, the norms and the cyclic trace sum are computed once per
stack, by the same calls and with the same bits as on the raw arrays. The
conditional suite runs one checker per stack and hands it the raw array.

:func:`run_suites` runs each (suite, n) as a unit of its own and splits the
units across forked processes; since no grid point's stream depends on
another's, the outcome is the same at every process count.
"""
from __future__ import annotations

import functools
import os
import pickle
import threading
from dataclasses import dataclass, field

import numpy as np

from . import inequalities as ineq
from .pdcore import DEFAULT_TOL, family_from_stack, random_pd_stack
from .serialize import family_to_dict

SUITES = ("unconditional", "conditional", "identities")

# The unconditional suite's checkers in call order. Record ``name`` is checked by
# ``ineq.batch_<name>``, looked up at call time so a wrapper bound there is called.
# Fixed-arity checkers take operands by letter: PD a, b, c, d and square x, y.
UNCONDITIONAL_FIXED = (
    ("trace_product", "ab"), ("weighted_cs", "xya"), ("cs_trace", "xy"),
    ("eigineq1", "ab"), ("nesbitt", "abc"), ("upper_bound_2ab", "abc"),
    ("wz_certificate", "abc"), ("s4_decomposition", "abcd"), ("bidirectional_eig4", "abcd"),
)
UNCONDITIONAL_FAMILY = (
    "harmonic_loewner", "block_certificate", "product_sum_eigs", "nesbitt_k",
    "shapiro_extension", "bidirectional", "square_cycle",
)
IDENTITIES = ("s4_identity", "two_ab_identity", "wz_identities", "square_cycle_identities")
# Trials evaluated as one stack. It bounds the memory a grid point takes (about
# 55 kB per trial at n = 6, p = 8, complex) and changes no result.
TRIALS_PER_STACK = 512


@dataclass
class GridRecord:
    check: str
    n: int
    p: int
    field: str
    trials: int = 0
    failures: int = 0
    min_margin: float = float("inf")
    witness: dict | None = None

    def add(self, margins, holds, witness_fn=None):
        """Fold in one stack of trials: their margins and verdicts, in trial order.

        ``witness_fn(t)`` serializes trial t; it is called for the first
        failing trial if the record has no witness yet.
        """
        margins = np.asarray(margins, dtype=float)
        failed = np.flatnonzero(~np.asarray(holds, dtype=bool))
        self.trials += margins.size
        # fmin skips NaN margins, as a running min(current, margin) does
        self.min_margin = min(self.min_margin, float(np.fmin.reduce(margins, initial=np.inf)))
        self.failures += failed.size
        if failed.size and self.witness is None and witness_fn is not None:
            self.witness = witness_fn(int(failed[0]))

    def to_dict(self) -> dict:
        d = {
            "check": self.check,
            "n": self.n,
            "p": self.p,
            "field": self.field,
            "trials": self.trials,
            "failures": self.failures,
            "min_margin": self.min_margin,
        }
        if self.witness is not None:
            d["witness"] = self.witness
        return d


@dataclass
class SuiteOutcome:
    records: list = field(default_factory=list)
    events: list = field(default_factory=list)

    @property
    def unconditional_failures(self) -> int:
        return sum(r.failures for r in self.records)

    def to_dict(self) -> dict:
        return {
            "records": [r.to_dict() for r in self.records],
            "events": self.events,
            "unconditional_failures": self.unconditional_failures,
        }


def _rng_for(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


_FIELD_ID = {"real": 0, "complex": 1}


def _stacks(n, trials, members, rng, field, gaussian_tail=0):
    """A grid point's trials as consecutive :func:`random_pd_stack` draws of
    at most ``TRIALS_PER_STACK`` rows; together they take the stream as one
    draw of all the trials would."""
    for start in range(0, trials, TRIALS_PER_STACK):
        rows = min(TRIALS_PER_STACK, trials - start)
        yield random_pd_stack(n, rows, members, rng, field, gaussian_tail=gaussian_tail)


def _batch(name: str):
    return getattr(ineq, f"batch_{name}")


def _family_witness(fams):
    return lambda t: family_to_dict(family_from_stack(fams[t]))


def _add_residual(rec: GridRecord, residual, allowed):
    rec.add(allowed - residual, residual <= allowed)


def run_unconditional(dims, p_values, trials, seed, tol=DEFAULT_TOL, fields=("real", "complex")) -> SuiteOutcome:
    out = SuiteOutcome()
    for n in dims:
        for fld in fields:
            rng = _rng_for(seed, 1, n, _FIELD_ID[fld])
            recs = [GridRecord(name, n, 0, fld) for name, _ in UNCONDITIONAL_FIXED]
            for drawn in _stacks(n, trials, 4, rng, fld, gaussian_tail=2):
                _add_fixed(recs, drawn, tol)
            out.records.extend(recs)
        for p in p_values:
            for fld in fields:
                rng = _rng_for(seed, 2, n, p, _FIELD_ID[fld])
                recs = [GridRecord(name, n, p, fld) for name in UNCONDITIONAL_FAMILY]
                for fams in _stacks(n, trials, p, rng, fld):
                    _add_family(recs, fams, tol)
                out.records.extend(recs)
    return out


# The helpers below hold a stack's contexts, so their cached intermediates are
# freed when the stack is done, before the next stack is drawn.

def _add_fixed(recs, drawn, tol):
    operands = dict(zip("abcdxy", map(ineq.StackContext, np.moveaxis(drawn, 1, 0))))
    for rec, (name, letters) in zip(recs, UNCONDITIONAL_FIXED):
        batch = _batch(name)(*(operands[k] for k in letters), tol)
        rec.add(batch.margin, batch.holds)


def _add_family(recs, fams, tol):
    ctx = ineq.StackContext(fams)
    for rec in recs:
        batch = _batch(rec.check)(ctx, tol)
        rec.add(batch.margin, batch.holds, _family_witness(fams))


def run_identities(dims, p_values, trials, seed, tol=DEFAULT_TOL, fields=("real", "complex")) -> SuiteOutcome:
    """Exact identities only: residuals must sit at round-off, far below 1e-10."""
    out = SuiteOutcome()
    for n in dims:
        for fld in fields:
            rng = _rng_for(seed, 3, n, _FIELD_ID[fld])
            recs = {name: GridRecord(name, n, 0, fld) for name in IDENTITIES}
            ext_recs = {p: GridRecord("extension_identity", n, p, fld) for p in p_values}
            # each trial draws a, b, c, d, then one family per p in p_values
            for drawn in _stacks(n, trials, 4 + sum(p_values), rng, fld):
                _add_identities(recs, ext_recs, drawn, p_values, tol)
            out.records.extend(recs.values())
            out.records.extend(ext_recs.values())
    return out


def _add_identities(recs, ext_recs, drawn, p_values, tol):
    n = drawn.shape[-1]
    a, b, c, d = map(ineq.StackContext, np.moveaxis(drawn[:, :4], 1, 0))
    scale = 1.0 + sum(x.fro for x in (a, b, c, d))
    r = ineq.batch_s4_decomposition(a, b, c, d, tol)
    _add_residual(recs["s4_identity"], r.detail["identity_residual"], 1e-10 * scale)
    r = ineq.batch_upper_bound_2ab(a, b, c, tol)
    _add_residual(recs["two_ab_identity"], r.detail["identity_residual"], 1e-10 * scale)
    r = ineq.batch_wz_certificate(a, b, c, tol)
    wz_res = np.maximum.reduce([
        r.detail["wz_residual"],
        abs(r.detail["tr_zz"] - r.detail["tr_zz_expected"]),
        abs(r.detail["tr_ww"] - r.detail["tr_n"]),
    ])
    _add_residual(recs["wz_identities"], wz_res, 1e-10 * scale**2)
    start = 4
    for p in p_values:
        fams = ineq.StackContext(drawn[:, start:start + p])
        start += p
        r = ineq.batch_square_cycle(fams, tol)
        sc_res = np.maximum(r.detail["wz_residual"], r.detail["zz_residual"])
        allowed = 1e-10 * (1.0 + sum(np.moveaxis(fams.fro, -1, 0)))
        _add_residual(recs["square_cycle_identities"], sc_res, allowed)
        r = ineq.batch_shapiro_extension(fams, tol)
        _add_residual(ext_recs[p], -r.margin, 1e-10 * (1.0 + abs(r.detail["base"]) + n))


def theorem_covers(n: int, p: int) -> bool:
    """Whether a theorem proves the trace bound Tr-sum >= p*n/2 at (n, p): the
    Nesbitt and four-variable theorems for p in {3, 4}, and the scalar cyclic
    inequality at n = 1."""
    return p in (3, 4) or (n == 1 and p in ineq.SCALAR_VALID_P)


def run_conditional(dims, p_values, trials, seed, tol=DEFAULT_TOL, fields=("real", "complex")) -> SuiteOutcome:
    out = SuiteOutcome()
    for n in dims:
        for p in p_values:
            for fld in fields:
                rng = _rng_for(seed, 4, n, p, _FIELD_ID[fld])
                rec = GridRecord("shapiro_trace", n, p, fld)
                for fams in _stacks(n, trials, p, rng, fld):
                    batch = ineq.batch_shapiro_trace(fams, tol)
                    if theorem_covers(n, p):
                        rec.add(batch.margin, batch.holds, _family_witness(fams))
                        continue
                    # outside the theorems a violation is an event, not a failure
                    rec.add(batch.margin, np.ones_like(batch.holds))
                    for t in np.flatnonzero(~batch.holds):
                        out.events.append({
                            "kind": "counterexample",
                            "check": "shapiro_trace",
                            "n": n,
                            "p": p,
                            "field": fld,
                            "margin": float(batch.margin[t]),
                            "family": family_to_dict(family_from_stack(fams[t])),
                        })
                out.records.append(rec)
    return out


def run_suites(suite, dims, p_values, trials, seed, tol=DEFAULT_TOL, fields=("real", "complex")):
    """Dispatch; returns {suite name: SuiteOutcome} for the suites asked for.

    The work is cut into units of one (suite, n) each, run as
    ``run_<suite>([n], ...)`` and split across up to :func:`_cpu_count`
    processes (see :func:`_run_units`). Every suite's outermost loop is over n,
    so the units' records and events, concatenated in serial order, are the
    serial outcome whatever the number of processes.
    """
    if suite not in SUITES + ("all",):
        raise ValueError(f"unknown suite {suite!r}")
    names = [name for name in ("unconditional", "identities", "conditional") if suite in (name, "all")]
    units = [(name, n) for name in names for n in dims]
    # runners are looked up at call time, so a wrapper bound on this module is called
    jobs = [functools.partial(globals()[f"run_{name}"], [n], p_values, trials, seed, tol, fields)
            for name, n in units]
    results = {name: SuiteOutcome() for name in names}
    for (name, _), outcome in zip(units, _run_units(jobs, [n for _, n in units])):
        results[name].records.extend(outcome.records)
        results[name].events.extend(outcome.events)
    return results


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_units(jobs, costs) -> list:
    """Call every job and return their results in job order.

    With W = min(CPUs, jobs) above 1, the jobs are sorted by descending cost
    and dealt round-robin into W shares. The parent runs share 0 itself; each
    other share runs in a child made by ``os.fork``, which sends its results
    back through a pipe. A share runs its jobs in job order and stops at the
    first error, so the error of the lowest-numbered job that raised is the one
    a serial run would have raised first; it is raised once every child has
    been read and reaped. Without ``os.fork``, at W = 1, or when other Python
    threads are running (a fork copies no thread but the caller's), the jobs
    run in order in this process.
    """
    workers = min(_cpu_count(), len(jobs))
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
                data = pickle.dumps((done, RuntimeError(f"verify worker could not send its result: {exc!r}")))
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
        return [], RuntimeError(f"verify worker {pid} ended without a result "
                                f"(exit code {os.waitstatus_to_exitcode(status)})")
    return pickle.loads(data)  # bytes written by this module's child
