"""Randomized verification suites over a (dimension, family-size, field) grid.

Three suites:
  unconditional - every theorem-backed checker must hold on all draws.
  identities    - the exact algebraic identities inside the proofs, each to
                  its tolerance in ``inequalities.IDENTITY_CHECKS``.
  conditional   - the trace bound Tr-sum >= p*n/2, the one conditional row
                  of ``inequalities.CHECKS``. Where a theorem covers it
                  (``inequalities.theorem_covers``: p in {3, 4} for every n,
                  and n = 1 with p in ``SCALAR_VALID_P``, so only n = 1 at the
                  open cases ``OPEN_P``) a violation is a suite failure; elsewhere
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
suites run in one walk per (n, field) (:func:`_walk`), which adds each chunk
slot by slot, through one :func:`_add_chunk` for every slot: slot 0 holds
the fixed-shape draws and their cycles (a, b, c) and (a, b, c, d), each
other slot p the families of p. A slot's operands of one word (a cycle or
the families) are joined on the trial axis, in ``SUITES`` order, in one
:class:`~cyclicpd.inequalities.StackContext` (a single suite joins nothing).
Each checker runs once, on a row view of the suites that read it, so the
context's intermediates are computed once per joined stack, and a checker
that an identity gate reads once for both suites. A trial's result does not
depend on the other rows of its stack, so each suite's outcome is the one it
gives alone, bit for bit, however its trials are chunked.

:func:`run_suites` runs each (n, field), with every asked suite, as a unit of
its own; as many forked processes as the grid's work repays take the units
from one queue, longest first. Every suite's output is its units' outputs
joined in job order, n as ``dims`` lists it, then field; a unit gives its
fixed-shape records (p = 0) first, then each p's records and events. So the
output is the same at every process count.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import inequalities as ineq
from ._fork import cpu_count as _cpu_count, run_units, workers_for
from .pdcore import REL_TOL, random_pd_stack, rng_for
from .serialize import family_to_dict

# The suites in run order, which is also their order in the output.
SUITES = ("unconditional", "identities", "conditional")

# The conditional suite's one checker: a second conditional row of
# ``ineq.CHECKS`` fails this unpacking.
(_CONDITIONAL,) = (name for name, (_, suite) in ineq.CHECKS.items() if suite == "conditional")
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
        """Fold in one stack of trials: their margins (T,) and verdicts (T,)
        bool, arrays in trial order.

        If the record has no witness yet, the first failing trial's family,
        from the trials' stack ``fams`` (T, p, n, n), becomes its witness.
        """
        failed = (~holds).nonzero()[0]
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

    def __reduce__(self):
        # pickled as its field values: a forked verify's worker sends its
        # records back, and the default would pickle every attribute's name
        # with each record
        return GridRecord, tuple(vars(self).values())


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


_FIELD_ID = {"real": 0, "complex": 1}


def _joined(parts):
    """The parts' trials as one stack, in order; one part is passed on as it is."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _walk(names, n, p_values, trials, seed, rel, fld) -> dict:
    """The suites ``names`` on one unit (n, field), {suite: SuiteOutcome}: per
    chunk of trials, each suite draws from its own streams what it would draw
    alone, and each slot, the fixed-shape draws and then each p's families,
    is added by one call of :func:`_add_chunk`, on its operands' contexts of
    the asked suites' rows."""
    u, i, c = (name in names for name in SUITES)
    key = _FIELD_ID[fld]
    out = {name: SuiteOutcome() for name in names}
    # slot 0 is the fixed-shape draws and their cycles, each other slot p the
    # families of p; a suite not asked has no records, gates or rows in any
    slots = (0, *p_values)
    unc = gates = cond = dict.fromkeys(slots, ())
    if u:
        # ``ineq.batch_<name>`` checks record ``name``, looked up at call time
        unc = {p: [GridRecord(name, n, p, fld) for name, (word, suite) in ineq.CHECKS.items()
                   if suite == "unconditional" and (word == ineq.FAMILY) == (p > 0)] for p in slots}
        out["unconditional"].records += [r for recs in unc.values() for r in recs]
        rng_fixed = rng_for(seed, 1, n, key)
        rng_family = {p: rng_for(seed, 2, n, p, key) for p in p_values}
    if i:
        # the records kept once per unit (p = 0), then those kept per p
        recs = {(g.record, p): GridRecord(g.record, n, p, fld)
                for p in slots for g in ineq.IDENTITY_CHECKS if g.per_p == (p > 0)}
        out["identities"].records += recs.values()
        gates = {p: [(recs[g.record, p if g.per_p else 0], g) for g in ineq.IDENTITY_CHECKS
                     if (ineq.CHECKS[g.check][0] == ineq.FAMILY) == (p > 0)] for p in slots}
        rng_ident = rng_for(seed, 3, n, key)
    if c:
        # the conditional suite's (record, events) of each p
        cond = {p: (GridRecord(_CONDITIONAL, n, p, fld), []) if p else () for p in slots}
        out["conditional"].records += [cond[p][0] for p in p_values]
        rng_cond = {p: rng_for(seed, 4, n, p, key) for p in p_values}
    # consecutive stacks of at most TRIALS_PER_STACK rows take each stream as
    # one draw of all the trials would
    for done in range(0, trials, TRIALS_PER_STACK):
        rows = min(TRIALS_PER_STACK, trials - done)
        du = random_pd_stack(n, rows, 4, rng_fixed, fld, gaussian_tail=2) if u else None
        # each trial draws a, b, c, d, then one family per p in p_values
        di = random_pd_stack(n, rows, 4 + sum(p_values), rng_ident, fld) if i else None
        if u or i:
            _add_chunk(unc[0], gates[0], cond[0], _fixed_operands(du, di), rows, rel)
        start = 4
        for p in p_values:
            fu = random_pd_stack(n, rows, p, rng_family[p], fld) if u else None
            fi = di[:, start:start + p] if i else None
            fc = random_pd_stack(n, rows, p, rng_cond[p], fld) if c else None
            start += p
            parts = [f for f in (fu, fi, fc) if f is not None]
            _add_chunk(unc[p], gates[p], cond[p], {ineq.FAMILY: ineq.StackContext(_joined(parts))}, rows, rel)
    if c:
        out["conditional"].events += [e for p in p_values for e in cond[p][1]]
    return out


# Each checker's operand words, split once, and the words whose operand is a
# context: those of several letters, a cycle or FAMILY.
_WORDS = {name: word.split() for name, (word, _) in ineq.CHECKS.items()}
_CONTEXTS = frozenset(w for words in _WORDS.values() for w in words if len(w) > 1)


def _fixed_operands(du, di) -> dict:
    """{word: operand} of one chunk's fixed-shape draws: a letter of "abcdxy"
    is that operand of the unconditional suite's ``du`` (T, 6, n, n), "abc"
    and "abcd" the context of that cycle of ``du`` and of the identities
    suite's ``di`` (T, 4 + ..., n, n), joined in that order, contiguous;
    either is None when its suite is not asked."""
    parts = [d for d in (du, di) if d is not None]
    ops = {"abcd"[:k]: ineq.StackContext(np.ascontiguousarray(_joined([d[:, :k] for d in parts]))) for k in (3, 4)}
    if du is not None:
        ops.update(zip("abcdxy", du.swapaxes(0, 1)))
    return ops


def checker_args(drawn, fams=None, plain=False) -> dict:
    """{name: [argument, ...]} of every ``ineq.CHECKS`` checker, in order, from
    the map the walk builds (:func:`_fixed_operands`) of ``drawn`` (T, 6, n,
    n) alone, with FAMILY ``fams``. With ``plain``, each argument is a plain
    array, so each call computes its intermediates itself."""
    ops = {**_fixed_operands(drawn, None), ineq.FAMILY: fams}
    if plain:
        ops = {w: getattr(a, "mats", a) for w, a in ops.items()}
    return {name: [ops[w] for w in words] for name, words in _WORDS.items()}


# Only _add_chunk holds a slot's contexts, so their cached intermediates are
# freed when the slot is done, before the next one is drawn.

def _add_chunk(recs, gates, cond, ops, rows, rel):
    """One chunk of ``rows`` trials of one slot: the unconditional suite's
    rows into its records ``recs``, the identities suite's through its
    (record, gate) pairs ``gates`` and the conditional suite's into its
    (record, events) ``cond``; a suite not asked has none. ``ops`` maps each
    operand word to its operand: a context holds the asked suites' rows,
    joined in ``SUITES`` order, a letter's plain array the unconditional
    suite's. A checker reads its own suite's rows and, if an identity gate
    reads it, the identities suite's too."""
    # the unconditional and identities rows end at mid
    mid = rows * (bool(recs) + bool(gates))
    if mid:
        both = {w: ops[w].rows(0, mid) if w in _CONTEXTS else ops[w] for w in ops}
    done = {}
    if recs:
        own = {w: ops[w].rows(0, rows) if w in _CONTEXTS else ops[w] for w in ops}
        for rec in recs:
            word = ineq.CHECKS[rec.check][0]
            batch = done[rec.check] = getattr(ineq, f"batch_{rec.check}")(
                *map((both if rec.check in _GATED else own).__getitem__, _WORDS[rec.check]), rel)
            # a check on a context keeps its trials' families for a witness
            rec.add(batch.margin[:rows], batch.holds[:rows], own[word].mats if word in _CONTEXTS else None)
    # each gate reads the identities rows of its checker's batch and of its tolerance
    mine = slice(mid - rows, mid)
    for rec, gate in gates:
        batch = done[gate.check] if gate.check in done else \
            getattr(ineq, f"batch_{gate.check}")(both[ineq.CHECKS[gate.check][0]], rel)
        residual = batch.detail["identity_residual"][mine]
        allowed = gate.allowed(batch, both)[mine]
        rec.add(allowed - residual, residual <= allowed)
    if not cond:
        return
    # the conditional suite's rows are the last
    (rec, events), fams = cond, ops[ineq.FAMILY].rows(mid, mid + rows)
    batch = getattr(ineq, f"batch_{rec.check}")(fams, rel)
    # outside the theorems a violation is an event, not a failure
    covered = ineq.theorem_covers(rec.n, rec.p)
    rec.add(batch.margin, batch.holds | (not covered), fams.mats)
    for t in () if covered else (~batch.holds).nonzero()[0]:
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
    The output is the units' records and events joined in job order (n as
    ``dims`` lists it, then each field of ``fields``), which is the serial
    outcome whatever the number of processes.
    """
    if suite not in SUITES + ("all",):
        raise ValueError(f"unknown suite {suite!r}")
    names = tuple(name for name in SUITES if suite in (name, "all"))
    units = [(n, fld) for n in dims for fld in fields]
    jobs = [functools.partial(_walk, names, n, p_values, trials, seed, rel, fld) for n, fld in units]
    costs = [TRIAL_WORK * n * trials * len(p_values) * len(names) for n, _ in units]
    # _cpu_count is looked up here, so a count bound on this module is used
    outcomes = run_units(jobs, costs, workers_for(sum(costs), len(jobs), _cpu_count()))
    return {name: SuiteOutcome([r for unit in outcomes for r in unit[name].records],
                               [e for unit in outcomes for e in unit[name].events]) for name in names}
