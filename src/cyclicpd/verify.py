"""Randomized verification suites over a (dimension, family-size, field) grid.

Three suites:
  unconditional - every theorem-backed checker must hold on all draws.
  identities    - the exact algebraic identities inside the proofs, to 1e-10.
  conditional   - the trace bound Tr-sum >= p*n/2. Where a theorem covers it
                  (p in {3, 4} for every n, and n = 1 with p in
                  ``SCALAR_VALID_P``) a violation is a suite failure; elsewhere
                  it is recorded as a counterexample event, never as a failure.

Aggregation is per grid point: trial count, failure count, worst margin, and
a serialized witness for the first failure (or event) of a check on a family
or a cycle; the two-operand bounds keep none, since x and y are not PD and two
operands are not a cyclic family. A record takes its trials' family stack and
serializes the failing row itself. Each suite has its own seeded stream per
grid point and draws its trials from it in chunks of at most
``TRIALS_PER_STACK``, one stacked draw each, which takes the same numbers in
the same order as one draw per matrix would; every checker then evaluates a
whole (T, ...) stack at once through its ``batch_`` kernel.

The asked suites run in one walk, n by n (:func:`_walk`). Per (n, field,
chunk) the cycles (a, b, c) and (a, b, c, d) of the unconditional and
identities draws, and per (n, p, field, chunk) the families of all three
suites, are joined on the trial axis, in ``SUITES`` order, in one
:class:`~cyclicpd.inequalities.StackContext`. Each checker runs once, on the
rows of the suites that read it (a row view of the context), so A_i^{-1},
sum A_i, sum A_i^{-1}, (sum A_i)^{-1}, the member-norm sum and the cyclic
trace sum are computed once per joined stack, and a ``SHARED`` checker once
for both suites that read it. A trial's result does not depend on the other
rows of its stack, so each suite's outcome is the one it gives alone, bit
for bit, and depends neither on scheduling nor on how the trials are
chunked. A single suite takes the same path and joins nothing: its contexts
hold its own draws. The two-operand bounds always take the drawn operands as
plain arrays.

:func:`run_suites`, the one runner, takes the suite to run (or "all") and
runs each (n, field), with every asked suite, as a unit of its own; as many
forked processes as the grid's work repays take the units from one queue,
longest first. Since no grid point's stream depends on another's, the
units' outcomes, put back in the order of one walk, are the same at every
process count.
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

# The unconditional suite's checkers in call order. Record ``name`` is checked by
# ``ineq.batch_<name>``, looked up at call time so a wrapper bound there is called.
# The fixed-shape checkers take one argument per word, from the drawn PD a, b,
# c, d and square x, y: a letter is that operand, "abc" and "abcd" its cycle.
UNCONDITIONAL_FIXED = (
    ("trace_product", "a b"), ("weighted_cs", "x y a"), ("cs_trace", "x y"),
    ("eigineq1", "a b"), ("nesbitt", "abc"), ("upper_bound_2ab", "abc"),
    ("wz_certificate", "abc"), ("s4_decomposition", "abcd"), ("bidirectional_eig4", "abcd"),
)
UNCONDITIONAL_FAMILY = (
    "harmonic_loewner", "block_certificate", "product_sum_eigs", "nesbitt_k",
    "shapiro_extension", "bidirectional", "square_cycle",
)
IDENTITIES = ("s4_identity", "two_ab_identity", "wz_identities", "square_cycle_identities")
# The unconditional checkers whose batches the identities suite reads too: with
# both suites asked, each runs once on both suites' joined stack, whose first
# rows are the unconditional suite's.
SHARED = frozenset({"upper_bound_2ab", "wz_certificate", "s4_decomposition", "shapiro_extension", "square_cycle"})
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


def _chunks(trials):
    """The row counts of a grid point's consecutive stacks, each at most
    ``TRIALS_PER_STACK``; drawn one after another, they take the stream as one
    draw of all the trials would."""
    return [min(TRIALS_PER_STACK, trials - start) for start in range(0, trials, TRIALS_PER_STACK)]


def _batch(name: str):
    return getattr(ineq, f"batch_{name}")


def _add_residual(rec: GridRecord, residual, allowed):
    rec.add(allowed - residual, residual <= allowed)


def _joined(parts):
    """The parts' trials as one stack, in order; one part is passed on as it is."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _walk(names, dims, p_values, trials, seed, rel, fields) -> dict:
    """The suites ``names`` over the grid in one walk: {suite: SuiteOutcome}.

    Per n, field and chunk of trials, each suite draws from its own streams
    what it would draw alone; its (a, b, c[, d]) cycles and each p's families
    are joined with the other suites' on the trial axis, in ``SUITES`` order.
    """
    u, i, c = (name in names for name in SUITES)
    out = {name: SuiteOutcome() for name in names}
    for n in dims:
        points = [(p, fld) for p in p_values for fld in fields]
        if u:
            fixed = {fld: [GridRecord(name, n, 0, fld) for name, _ in UNCONDITIONAL_FIXED] for fld in fields}
            family = {pt: [GridRecord(name, n, *pt) for name in UNCONDITIONAL_FAMILY] for pt in points}
            out["unconditional"].records += [r for recs in (*fixed.values(), *family.values()) for r in recs]
        if i:
            ident = {fld: {name: GridRecord(name, n, 0, fld) for name in IDENTITIES} for fld in fields}
            ext = {pt: GridRecord("extension_identity", n, *pt) for pt in points}
            out["identities"].records += [r for fld in fields for r in
                                          (*ident[fld].values(), *(ext[p, fld] for p in p_values))]
        if c:
            cond = {pt: GridRecord("shapiro_trace", n, *pt) for pt in points}
            events = {pt: [] for pt in points}
            out["conditional"].records += cond.values()
        for fld in fields:
            key = _FIELD_ID[fld]
            if u:
                rng_fixed = _rng_for(seed, 1, n, key)
                rng_family = {p: _rng_for(seed, 2, n, p, key) for p in p_values}
            if i:
                rng_ident = _rng_for(seed, 3, n, key)
            if c:
                rng_cond = {p: _rng_for(seed, 4, n, p, key) for p in p_values}
            for rows in _chunks(trials):
                du = random_pd_stack(n, rows, 4, rng_fixed, fld, gaussian_tail=2) if u else None
                # each trial draws a, b, c, d, then one family per p in p_values
                di = random_pd_stack(n, rows, 4 + sum(p_values), rng_ident, fld) if i else None
                if u or i:
                    _add_cycles(fixed[fld] if u else None, ident[fld] if i else None, du, di, rel)
                start = 4
                for p in p_values:
                    pt = p, fld
                    fu = random_pd_stack(n, rows, p, rng_family[p], fld) if u else None
                    fi = di[:, start:start + p] if i else None
                    fc = random_pd_stack(n, rows, p, rng_cond[p], fld) if c else None
                    start += p
                    _add_families(family[pt] if u else None, (ident[fld], ext[pt]) if i else None,
                                  (cond[pt], events[pt]) if c else None, fu, fi, fc, rel)
        if c:
            out["conditional"].events += [e for pt in points for e in events[pt]]
    return out


# The helpers below hold a chunk's contexts, so their cached intermediates are
# freed when the chunk is done, before the next one is drawn.

def _shared(done, name, ctx, rel):
    """The batch of ``name`` that the unconditional suite ran on the joined
    rows, else one of its own on ``ctx``."""
    return done[name] if name in done else _batch(name)(ctx, rel)


def _fixed_args(drawn, cycles=None):
    """The fixed-shape checkers' arguments by word: each drawn operand a plain
    (T, n, n) array, and the cycles (a, b, c) and (a, b, c, d) each the first
    T rows of the context in ``cycles``, by default a contiguous stack of
    ``drawn``'s own."""
    args = dict(zip("abcdxy", drawn.swapaxes(0, 1)))
    for w in ("abc", "abcd"):
        ctx = cycles[w] if cycles else ineq.StackContext(np.ascontiguousarray(drawn[:, :len(w)]))
        args[w] = ctx.rows(0, len(drawn))
    return args


def _add_cycles(recs, ident, du, di, rel):
    """One chunk of the fixed-shape draws: the unconditional suite's ``du``
    into its records ``recs`` and the identities suite's ``di`` into
    ``ident``, each None when its suite is not asked."""
    parts = [d for d in (du, di) if d is not None]
    rows = len(parts[0])
    cycles = {w: ineq.StackContext(np.ascontiguousarray(_joined([d[:, :len(w)] for d in parts])))
              for w in ("abc", "abcd")}
    done = {}
    if du is not None:
        args = _fixed_args(du, cycles)
        for rec, (name, words) in zip(recs, UNCONDITIONAL_FIXED):
            ops = [cycles[words]] if name in SHARED else [args[w] for w in words.split()]
            batch = done[name] = _batch(name)(*ops, rel)
            # a one-word check runs on a cycle, which its witness replays as a family
            rec.add(batch.margin[:rows], batch.holds[:rows], args[words].mats if words in cycles else None)
    if di is None:
        return
    # the identity residuals are the last rows of a shared checker's batch
    last = slice(-rows, None)
    scale = 1.0 + cycles["abcd"].fro_sum[last]
    r = _shared(done, "s4_decomposition", cycles["abcd"], rel)
    _add_residual(ident["s4_identity"], r.detail["identity_residual"][last], 1e-10 * scale)
    r = _shared(done, "upper_bound_2ab", cycles["abc"], rel)
    _add_residual(ident["two_ab_identity"], r.detail["identity_residual"][last], 1e-10 * scale)
    r = _shared(done, "wz_certificate", cycles["abc"], rel)
    _add_residual(ident["wz_identities"], r.detail["identity_residual"][last], 1e-10 * scale**2)


def _add_families(recs, ident, cond, fu, fi, fc, rel):
    """One chunk of one p's families: the unconditional suite's ``fu`` into its
    records ``recs``, the identities suite's ``fi`` into its (per-field,
    extension) records ``ident`` and the conditional suite's ``fc`` into its
    (record, events) ``cond``, each None when its suite is not asked."""
    parts = [f for f in (fu, fi, fc) if f is not None]
    rows = len(parts[0])
    ctx = ineq.StackContext(_joined(parts))
    # the unconditional and identities rows end at mid
    mid = rows * ((fu is not None) + (fi is not None))
    done = {}
    if fu is not None:
        own, both = ctx.rows(0, rows), ctx.rows(0, mid)
        for rec in recs:
            batch = done[rec.check] = _batch(rec.check)(both if rec.check in SHARED else own, rel)
            rec.add(batch.margin[:rows], batch.holds[:rows], fu)
    if fi is not None:
        (field_recs, ext), fams, last = ident, ctx.rows(mid - rows, mid), slice(-rows, None)
        r = _shared(done, "square_cycle", fams, rel)
        allowed = 1e-10 * (1.0 + fams.fro_sum)
        _add_residual(field_recs["square_cycle_identities"], r.detail["identity_residual"][last], allowed)
        r = _shared(done, "shapiro_extension", fams, rel)
        base = r.detail["base"][last]
        _add_residual(ext, -r.margin[last], 1e-10 * (1.0 + abs(base) + fi.shape[-1]))
    if fc is not None:
        _add_conditional(*cond, ctx.rows(mid, mid + rows), rel)


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
        events.append({
            "kind": "counterexample",
            "check": "shapiro_trace",
            "n": rec.n,
            "p": rec.p,
            "field": rec.field,
            "margin": float(batch.margin[t]),
            "family": family_to_dict(fams.mats[t]),
        })


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
    jobs = [functools.partial(_walk, names, [n], p_values, trials, seed, rel, (fld,)) for n, fld in units]
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
