"""Randomized verification suites over a (dimension, family-size, field) grid.

Three suites:
  unconditional - every theorem-backed checker must hold on all draws.
  identities    - the exact algebraic identities inside the proofs, each to
                  its tolerance in ``inequalities.IDENTITY_CHECKS``.
  conditional   - the trace bound Tr-sum >= p*n/2. Where a theorem covers it
                  (p in {3, 4} for every n, and n = 1 with p in
                  ``SCALAR_VALID_P``) a violation is a suite failure; elsewhere
                  it is recorded as a counterexample event, never as a failure.

Aggregation is per grid point: trial count, failure count, worst margin, and
a serialized witness for the first failure (or event) of a check on a family
or a cycle; the two-operand bounds keep none, since x and y are not PD and two
operands are not a cyclic family. Each suite has its own seeded stream per
grid point and draws its trials from it in chunks of at most
``TRIALS_PER_STACK``, one stacked draw each, which takes the same numbers in
the same order as one draw per matrix would; every checker then evaluates a
whole (T, ...) stack at once through its ``batch_`` kernel.

The suites' checkers, records and identity gates come from two tables,
``inequalities.CHECKS`` and ``inequalities.IDENTITY_CHECKS``. The asked
suites run in one walk per (n, field) (:func:`_walk`): per chunk, the cycles
(a, b, c) and (a, b, c, d) of the unconditional and identities draws, and per
p the families of all three suites, are joined on the trial axis, in
``SUITES`` order, in one :class:`~cyclicpd.inequalities.StackContext` (a
single suite joins nothing). Each checker runs once, on a row view of the
suites that read it, so the context's intermediates are computed once per
joined stack, and a checker that an identity gate reads once for both
suites. A trial's result does not depend on the other rows of its stack, so
each suite's outcome is the one it gives alone, bit for bit, however its
trials are chunked.

:func:`run_suites` runs each (n, field), with every asked suite, as a unit of
its own; as many forked processes as the grid's work repays take the units
from one queue, longest first, and the units' outcomes, put back in the
order of one walk, are the same at every process count.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import inequalities as ineq
from ._fork import cpu_count as _cpu_count, run_units, workers_for
from .pdcore import REL_TOL, random_pd_stack
from .serialize import family_to_dict

# The suites in run order, which is also their order in the output.
SUITES = ("unconditional", "identities", "conditional")

# With both suites asked, a checker that an identity gate reads runs once on
# both suites' joined stack, whose first rows are the unconditional suite's.
_GATED = frozenset(g.check for g in ineq.IDENTITY_CHECKS)
# Trials per suite drawn and evaluated as one chunk. It bounds the memory a
# chunk takes (about 55 kB per trial and suite at n = 6, p = 8, complex) and
# changes no result.
TRIALS_PER_STACK = 512
# The fork rule's work of one trial of one suite at one p per unit of n, in
# the search block-iterations that ``_fork.FLOOR`` counts; a unit (n, field)
# weighs it times n x trials x |p| x |suites|, which also orders the queue. A
# grid's fork repays itself from about 50 ms of serial time, a search's from
# about 100 ms, so a trial weighs more than the 400 or so block-iterations its
# time would buy (``tools/bench_kernel.py``, fork layer).
TRIAL_WORK = 1000


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

    def add(self, margins, holds, fams=None):
        """Fold in one stack of trials: their margins and verdicts, in trial order.

        If the record has no witness yet, the first failing trial's family,
        from the trials' stack ``fams`` (T, p, n, n), becomes its witness.
        """
        margins = np.asarray(margins, dtype=float)
        failed = np.flatnonzero(~np.asarray(holds, dtype=bool))
        self.trials += margins.size
        # fmin skips NaN margins, as a running min(current, margin) does
        self.min_margin = min(self.min_margin, float(np.fmin.reduce(margins, initial=np.inf)))
        self.failures += failed.size
        if failed.size and self.witness is None and fams is not None:
            self.witness = family_to_dict(fams[failed[0]])

    def to_dict(self) -> dict:
        """The fields in order, without a witness that is None."""
        d = dict(vars(self))
        if self.witness is None:
            del d["witness"]
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


def _joined(parts):
    """The parts' trials as one stack, in order; one part is passed on as it is."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _walk(names, n, p_values, trials, seed, rel, fld) -> dict:
    """The suites ``names`` on one unit (n, field), {suite: SuiteOutcome}: per
    chunk of trials, each suite draws from its own streams what it would draw
    alone, and its cycles and each p's families are joined with the other
    suites' on the trial axis, in ``SUITES`` order."""
    u, i, c = (name in names for name in SUITES)
    key = _FIELD_ID[fld]
    out = {name: SuiteOutcome() for name in names}
    # p = 0 stands for the fixed-shape draws and their cycles, each other p for its families
    if u:
        # ``ineq.batch_<name>`` checks record ``name``, looked up at call time
        unc = {p: [GridRecord(name, n, p, fld) for name, (word, suite) in ineq.CHECKS.items()
                   if suite == "unconditional" and (word == ineq.FAMILY) == (p > 0)] for p in (0, *p_values)}
        out["unconditional"].records += [r for recs in unc.values() for r in recs]
        rng_fixed = _rng_for(seed, 1, n, key)
        rng_family = {p: _rng_for(seed, 2, n, p, key) for p in p_values}
    if i:
        # the records kept once per unit (p = 0), then those kept per p
        recs = {(g.record, p): GridRecord(g.record, n, p, fld)
                for p in (0, *p_values) for g in ineq.IDENTITY_CHECKS if g.per_p == (p > 0)}
        out["identities"].records += recs.values()
        gates = {p: [(recs[g.record, p if g.per_p else 0], g) for g in ineq.IDENTITY_CHECKS
                     if (ineq.CHECKS[g.check][0] == ineq.FAMILY) == (p > 0)] for p in (0, *p_values)}
        rng_ident = _rng_for(seed, 3, n, key)
    if c:
        cond = {p: GridRecord("shapiro_trace", n, p, fld) for p in p_values}
        events = {p: [] for p in p_values}
        out["conditional"].records += cond.values()
        rng_cond = {p: _rng_for(seed, 4, n, p, key) for p in p_values}
    # consecutive stacks of at most TRIALS_PER_STACK rows take each stream as
    # one draw of all the trials would
    for done in range(0, trials, TRIALS_PER_STACK):
        rows = min(TRIALS_PER_STACK, trials - done)
        du = random_pd_stack(n, rows, 4, rng_fixed, fld, gaussian_tail=2) if u else None
        # each trial draws a, b, c, d, then one family per p in p_values
        di = random_pd_stack(n, rows, 4 + sum(p_values), rng_ident, fld) if i else None
        if u or i:
            _add_cycles(unc[0] if u else None, gates[0] if i else None, du, di, rel)
        start = 4
        for p in p_values:
            fu = random_pd_stack(n, rows, p, rng_family[p], fld) if u else None
            fi = di[:, start:start + p] if i else None
            fc = random_pd_stack(n, rows, p, rng_cond[p], fld) if c else None
            start += p
            _add_families(unc[p] if u else None, gates[p] if i else None,
                          (cond[p], events[p]) if c else None, fu, fi, fc, rel)
    if c:
        out["conditional"].events += [e for p in p_values for e in events[p]]
    return out


# The helpers below hold a chunk's contexts, so their cached intermediates are
# freed when the chunk is done, before the next one is drawn.

def checker_args(drawn, fams=None, cycles=None, plain=False) -> dict:
    """{name: [argument, ...]} of every ``ineq.CHECKS`` checker, in order: a
    letter of its word is that operand of ``drawn`` (T, 6, n, n), a cycle the
    first T rows of its context in ``cycles`` (by default a contiguous one of
    ``drawn``'s own), FAMILY is ``fams``. With ``plain``, each argument is a
    plain array, so each call computes its intermediates itself."""
    if cycles is None:
        cycles = {w: ineq.StackContext(np.ascontiguousarray(drawn[:, :len(w)])) for w in ("abc", "abcd")}
    args = dict(zip("abcdxy", drawn.swapaxes(0, 1)))
    args.update({w: ctx.rows(0, len(drawn)) for w, ctx in cycles.items()})
    args[ineq.FAMILY] = fams
    if plain:
        args = {w: getattr(a, "mats", a) for w, a in args.items()}
    return {name: [args[w] for w in word.split()] for name, (word, _) in ineq.CHECKS.items()}


def _add_cycles(recs, gates, du, di, rel):
    """One chunk of the fixed-shape draws: the unconditional suite's ``du``
    into its records ``recs`` and the identities suite's ``di`` through its
    (record, gate) pairs ``gates``, each None when its suite is not asked."""
    parts = [d for d in (du, di) if d is not None]
    rows = len(parts[0])
    cycles = {w: ineq.StackContext(np.ascontiguousarray(_joined([d[:, :len(w)] for d in parts])))
              for w in ("abc", "abcd")}
    done = {}
    if du is not None:
        args = checker_args(du, cycles=cycles)
        for rec in recs:
            word, ops = ineq.CHECKS[rec.check][0], args[rec.check]
            batch = done[rec.check] = getattr(ineq, f"batch_{rec.check}")(
                *([cycles[word]] if rec.check in _GATED else ops), rel)
            # a one-word check runs on a cycle, which its witness replays as a family
            rec.add(batch.margin[:rows], batch.holds[:rows], ops[0].mats if word in cycles else None)
    if di is not None:
        # the identities suite's rows are the last
        _add_identities(gates, done, cycles, slice(-rows, None), rel)


def _add_families(recs, gates, cond, fu, fi, fc, rel):
    """One chunk of one p's families: the unconditional suite's ``fu`` into its
    records ``recs``, the identities suite's ``fi`` through its (record, gate)
    pairs ``gates`` and the conditional suite's ``fc`` into its (record,
    events) ``cond``, each None when its suite is not asked."""
    parts = [f for f in (fu, fi, fc) if f is not None]
    rows = len(parts[0])
    ctx = ineq.StackContext(_joined(parts))
    # the unconditional and identities rows end at mid
    mid = rows * ((fu is not None) + (fi is not None))
    both = ctx.rows(0, mid) if mid else None
    done = {}
    if fu is not None:
        own = ctx.rows(0, rows)
        for rec in recs:
            batch = done[rec.check] = getattr(ineq, f"batch_{rec.check}")(both if rec.check in _GATED else own, rel)
            rec.add(batch.margin[:rows], batch.holds[:rows], fu)
    if fi is not None:
        _add_identities(gates, done, {ineq.FAMILY: both}, slice(mid - rows, mid), rel)
    if fc is not None:
        _add_conditional(*cond, ctx.rows(mid, mid + rows), rel)


def _add_identities(gates, done, ops, mine, rel):
    """One chunk of the identities suite: each (record, gate) in ``gates`` reads
    rows ``mine`` of its checker's batch (in ``done`` if the unconditional suite
    ran it, else run on ``ops``, the contexts by word) and of its tolerance."""
    for rec, gate in gates:
        batch = done[gate.check] if gate.check in done else \
            getattr(ineq, f"batch_{gate.check}")(ops[ineq.CHECKS[gate.check][0]], rel)
        residual = batch.detail["identity_residual"][mine]
        allowed = gate.allowed(batch, ops)[mine]
        rec.add(allowed - residual, residual <= allowed)


def theorem_covers(n: int, p: int) -> bool:
    """Whether a theorem proves the trace bound Tr-sum >= p*n/2 at (n, p): the
    Nesbitt and four-variable theorems for p in {3, 4}, and the scalar cyclic
    inequality at n = 1."""
    return p in (3, 4) or (n == 1 and p in ineq.SCALAR_VALID_P)


def _add_conditional(rec, events, fams, rel):
    """One chunk of the conditional suite, whose families are the context ``fams``."""
    batch = ineq.batch_shapiro_trace(fams, rel)
    if theorem_covers(rec.n, rec.p):
        rec.add(batch.margin, batch.holds, fams.mats)
        return
    # outside the theorems a violation is an event, not a failure
    rec.add(batch.margin, np.ones_like(batch.holds))
    for t in np.flatnonzero(~batch.holds):
        events.append({"kind": "counterexample", "check": rec.check, "n": rec.n, "p": rec.p, "field": rec.field,
                       "margin": float(batch.margin[t]), "family": family_to_dict(fams.mats[t])})


def run_suites(suite, dims, p_values, trials, seed, rel=REL_TOL, fields=("real", "complex")):
    """Dispatch; returns {suite name: SuiteOutcome} for the suites asked for.

    The work is cut into units of one (n, field) each, running every asked
    suite in one walk: the finest cut that keeps every stream, since the
    fixed-shape and identities streams are keyed per (n, field). A unit's
    work is TRIAL_WORK x n x trials x |p_values| x |suites|, and the units
    are split across W = min(``_cpu_count()``, units, max(1, work // FLOOR))
    processes, which take them longest first from one queue (see
    :func:`cyclicpd._fork.workers_for` and :func:`cyclicpd._fork.run_units`).
    The units' records and events, put in serial order by :func:`_serial`,
    are the serial outcome whatever the number of processes.
    """
    if suite not in SUITES + ("all",):
        raise ValueError(f"unknown suite {suite!r}")
    names = tuple(name for name in SUITES if suite in (name, "all"))
    units = [(n, fld) for n in dims for fld in fields]
    jobs = [functools.partial(_walk, names, n, p_values, trials, seed, rel, fld) for n, fld in units]
    costs = [TRIAL_WORK * n * trials * len(p_values) * len(names) for n, _ in units]
    # _cpu_count is looked up here, so a count bound on this module is used
    outcomes = run_units(jobs, costs, workers_for(sum(costs), len(jobs), _cpu_count()))
    return _serial(names, outcomes, p_values, fields)


def _serial(names, outcomes, p_values, fields):
    """The outcomes of the units, one per (n, field) in ``run_suites``' job
    order, joined in the order of one walk over the grid: n by n, and per n
    the identities records field by field, and the other suites' records and
    events p by p (the fixed-shape records, whose p is 0, first), each p's
    fields in order."""
    place = {pt: k for k, pt in enumerate([(0, fld) for fld in fields] +
                                          [(p, fld) for p in p_values for fld in fields])}
    out = {name: SuiteOutcome() for name in names}
    for start in range(0, len(outcomes), len(fields)):
        units = outcomes[start:start + len(fields)]
        for name, whole in out.items():
            records = [r for unit in units for r in unit[name].records]
            events = [e for unit in units for e in unit[name].events]
            if name != "identities":
                records.sort(key=lambda r: place[r.p, r.field])
                events.sort(key=lambda e: place[e["p"], e["field"]])
            whole.records += records
            whole.events += events
    return out
