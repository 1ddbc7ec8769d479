"""Counterexample search over products of the positive definite cone.

Minimizes the cyclic trace-sum margin (the defect of the conditional bound
Tr-sum >= p*n/2) by multi-restart gradient descent with Armijo backtracking.
Iterates are parameterized as A_i = L_i L_i^T + RIDGE*I (RIDGE = 1e-8), so the
feasible set is unconstrained and every iterate stays strictly positive
definite, above the floor at which ``eval`` loads a family. The restarts
descend in lockstep as one (restarts, p, n, n) stack; each keeps its own step
and stopping state, so a restart's trajectory does not depend on which other
restarts run beside it. An iteration is one accepted step. Each line search
starts at min(2 x the restart's last accepted step, 1e3) (the first at
STEP_INIT = 0.5) and tries at most 50 halvings of it; the halvings are
formed and evaluated chunk by chunk, in stacked chunks of 3, 8, 16 and 23
trial steps per restart, with the result of trying them one at a time; the
later chunks' halvings are formed only when some restart passes none of the
first chunk's. Every 100 iterations a gauge fix rescales the factors. One
driver runs the descent; it reads its objective
(``_Objective``) only through the trial evaluation, the kept inverses, the
gradient, the gradient's squared norm and the trace sum. The matrix objective
(n >= 2) takes the cyclic trace sum of ``inequalities.cyclic_traces``, the
one kernel that verify and ``eval`` use too, with the program's one inversion
rule per S_i: a closed form at n = 2 and 3 where its guard admits S_i, LAPACK
otherwise (one solve per refused term, a symmetrized inverse). Each iterate
is evaluated once: the trial evaluation that accepts it keeps its A_i and
what it formed S_i from, and the next gradient takes S_i^{-1} from those by
the same rule, bit for bit what ``margin_gradient`` (A_i and
``cyclic_inverses`` formed afresh) gives. The scalar objective (n = 1) holds
each restart as one row of a flat (restarts, p) array: a_i = l_i^2 + RIDGE,
S_i = a_{i+1} + a_{i+2}, the margin sum_i a_i / S_i - p/2 added in order and
S_i^{-1} = 1 / S_i, with the matrix objective's bits on 1x1 blocks. It
holds the search's one +0.0 rule (``_scalar_gradient``): a 1x1 matmul adds
its one product to +0.0, so a gradient entry of -0.0 becomes +0.0. At n = 1
the matrix objective stays the scalar one's test oracle and
``margin_gradient``'s path. The descent carries only the restarts still
descending, as arrays rebuilt each iteration from the first chunk's gathers;
a later chunk only overwrites the rows of restarts still pending. The
restarts are cut into contiguous shares, one per process that
``_fork.workers_for`` grants the search's work (restarts x p x n**2 x
max_iters), and each share descends in a forked process; a search whose
work is below the fork floor runs as one stack in this process, whose
arrays are the result as they stand, joined with nothing. The rule
weighs a scalar search as any other, so at the default budget (32 restarts
of 3000 iterations) one forks from p = 5 at 2 CPUs, though at p = 14 and 23
the fork saves no time (``tools/bench_kernel.py --layer fork``; ROADMAP item 19).
The winner's margin is re-checked apart from the descent (``_recheck_trace``);
at or below -NOISE_BAND (1e-8) it is a verified counterexample, in (-1e-8, 0) noise.

Known scalar behavior consumed as search targets: the scalar inequality holds
exactly for p in ``inequalities.SCALAR_VALID_P`` (3..12 and odd p <= 23),
and fails for even p in 14..22 and all p > 23. The open question is whether
the matrix version survives at p in ``inequalities.OPEN_P`` (12 and 23) for
n >= 2; ``search --p 12`` or ``--p 23`` without ``--n`` sweeps n = 1, 2, 3.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, NamedTuple

import numpy as np

from ._fork import cpu_count as _cpu_count, run_units, workers_for
from .errors import IllConditioned
from .inequalities import (_cyclic_traces, _kept_inverses, _require_cycle, _rtr, _shift_index, _sum_over_p,
                           cyclic_denominators, cyclic_inverses, cyclic_shift)
from .pdcore import _ct, _fro, _pd_floor, _symmetrize, rng_for
from .serialize import family_to_dict

NOISE_BAND = 1e-8  # margins in (-NOISE_BAND, 0) are classified as round-off
# Every member is A_i = L_i L_i^T + RIDGE*I: its smallest eigenvalue stays
# above the 1e-12 floor (``pdcore.PD_FLOOR``) that ``eval`` applies when it
# loads a ``best_family``, so every reported family replays.
RIDGE = 1e-8
STEP_INIT = 0.5  # the first line search's first trial step
# Largest step a later line search starts from: from a start of about 1e16 up,
# 50 halvings never reach a step the line search accepts.
MAX_STEP = 1e3
# A line search tries at most MAX_HALVINGS trial steps, evaluated in stacked
# chunks of these sizes: most accept within the first chunk, and a restart
# that fails them all costs four stacked evaluations, not fifty.
HALVING_CHUNKS = (3, 8, 16, 23)
MAX_HALVINGS = sum(HALVING_CHUNKS)


@dataclass(frozen=True)
class SearchConfig:
    """Budget and reproducibility knobs for one search run."""

    p: int
    n: int = 1
    restarts: int = 32
    max_iters: int = 3000
    master_seed: int = 0

    def __post_init__(self):
        if self.p < 3:
            raise ValueError("p must be >= 3")
        if self.n < 1 or self.restarts < 1 or self.max_iters < 1:
            raise ValueError("n, restarts and max_iters must be positive")

    def to_dict(self) -> dict:
        """The config and the search's two constants, in a fixed key order;
        ``ridge`` names the feasible set A_i >= RIDGE*I of the margins."""
        return {"p": self.p, "n": self.n, "restarts": self.restarts, "max_iters": self.max_iters,
                "step_init": STEP_INIT, "ridge": RIDGE, "master_seed": self.master_seed}


@dataclass(frozen=True)
class SearchResult:
    best_family: np.ndarray  # the winner's read-only stack (p, n, n)
    best_margin: float
    iterations_used: int
    margin_history: list  # (iteration, margin) pairs of the winner, a Python int and float each
    classification: str
    restart_index: int

    def to_dict(self) -> dict:
        return {
            "best_margin": self.best_margin,
            "iterations_used": self.iterations_used,
            "classification": self.classification,
            "restart_index": self.restart_index,
            "margin_history": [[i, m] for i, m in self.margin_history],
            "best_family": family_to_dict(self.best_family),
        }


def scalar_cyclic_sum(values) -> float:
    """Independent scalar oracle: S_p = sum_i a_i / (a_{i+1} + a_{i+2})."""
    a = [float(v) for v in values]
    p = len(a)
    if p < 3:
        raise ValueError("need at least three scalars")
    if min(a) <= 0:
        raise ValueError("scalars must be positive")
    return sum(a[i] / (a[(i + 1) % p] + a[(i + 2) % p]) for i in range(p))


# ---------------------------------------------------------------------------
# The descent's two objectives on the factor parameterization
# ---------------------------------------------------------------------------
#
# The matrix objective takes factors stacked as (..., p, n, n), one family
# per restart, and evaluates them through the cyclic trace and inverse kernels
# of ``inequalities``; L L^T rounds to an exactly symmetric matrix, as their
# 2x2 and 3x3 closed form needs. The scalar objective (n = 1) holds each
# restart as one row of a flat (B, p) array and computes elementwise what
# the matrix objective computes on 1x1 blocks, with the same bits.


@lru_cache(maxsize=128)
def _ridge_eye(n: int, ridge: float) -> np.ndarray:
    eye = ridge * np.eye(n)
    eye.flags.writeable = False
    return eye


def _mats_from_factors(factors, ridge: float):
    # the contiguous transpose takes numpy's faster matmul path and rounds the
    # same as the transposed view
    lt = np.ascontiguousarray(factors.swapaxes(-1, -2))
    return factors @ lt + _ridge_eye(factors.shape[-1], ridge)


def _trial(factors, ridge: float):
    """(margins, mats, kept) of stacked factors (B, p, n, n): each family's
    margin, its A_i = L_i L_i^T + ridge*I, and what ``_kept_inverses`` builds
    its S_i^{-1} from without forming S_i again."""
    mats = _mats_from_factors(factors, ridge)
    traces, kept = _cyclic_traces(mats)
    return traces - mats.shape[-3] * mats.shape[-1] / 2.0, mats, kept


def _margin_value(factors, ridge: float):
    """Margin of stacked factors (..., p, n, n); one family's p blocks give a scalar."""
    return _trial(np.asarray(factors, dtype=np.float64), ridge)[0]


def margin_gradient(factors, ridge: float):
    """Exact gradient of the margin under A_i = L_i L_i^T + ridge*I.

    Uses d Tr(A S^{-1}) = Tr(S^{-1} dA) - Tr(S^{-1} A S^{-1} dS) and the chain
    rule through the factorization; matches central finite differences.
    Takes stacked factors (..., p, n, n) (or a list of p blocks) and returns
    an array of that shape.
    """
    factors = np.asarray(factors, dtype=np.float64)
    mats = _mats_from_factors(factors, ridge)
    return _gradient(factors, mats, cyclic_inverses(mats))


def _gradient(factors, mats, invs):
    """``margin_gradient`` from the factors' A_i and S_i^{-1}."""
    # K_i := S_i^{-1} A_i S_i^{-1} is the sensitivity of term i to its denominator
    ks = invs @ mats @ invs
    return 2.0 * (invs - cyclic_shift(ks, -1) - cyclic_shift(ks, -2)) @ factors


def _norm2(grads):
    """Squared Frobenius norm of each family's gradient (B, p, n, n), summed in order over p."""
    b, p, n = grads.shape[:3]
    return _sum_over_p((grads * grads).reshape(b, p, n * n).sum(axis=-1))


def _trace_sum(mats):
    """Sum of Tr A_i over each family (B, p, n, n), in order over p."""
    return _sum_over_p(mats.trace(axis1=-2, axis2=-1))


def _scalar_trial(factors, ridge: float):
    """``_trial`` of flat factors (B, p), with its bits: (margins, a, S) with
    a_i = l_i l_i + ridge and S_i = a_{i+1} + a_{i+2}; the margin is the sum
    of a_i / S_i, added in order, - p/2. No a_i / S_i is -0.0, so the sum
    needs no + 0.0."""
    a = factors * factors
    a += ridge
    p = a.shape[1]
    s = a.take(_shift_index(p, 1), axis=1)
    s += a.take(_shift_index(p, 2), axis=1)
    margins = np.add.accumulate(a / s, axis=1)[:, -1]
    margins -= p / 2.0
    return margins, a, s


def _scalar_inverses(a, s, rows):
    """``_kept_inverses`` of the scalar objective: 1 / S_i of families ``rows``."""
    return 1.0 / s[rows]


def _scalar_gradient(factors, a, inv):
    """``_gradient`` of flat factors (B, p), with its bits, from a_i and
    1 / S_i. The 1x1 matmul adds each product to +0.0, so a -0.0 product
    becomes +0.0 here too; at ridge >= 0 no factor of K_i is negative, so
    only the last product can be -0.0."""
    ks = inv * a
    ks *= inv
    p = a.shape[1]
    d = inv - ks.take(_shift_index(p, -1), axis=1)
    d -= ks.take(_shift_index(p, -2), axis=1)
    d *= 2.0
    d *= factors
    d += 0.0
    return d


def _scalar_norm2(grads):
    """``_norm2`` of flat gradients (B, p); no square is -0.0."""
    return np.add.accumulate(grads * grads, axis=1)[:, -1]


class _Objective(NamedTuple):
    """What ``_descend`` evaluates: ``layout`` views the (R, p, n, n) factors
    as the objective's stack, one row per restart; trial(stack) gives
    (margins, A_i, kept), kept_inverses(A_i, kept, rows) the S_i^{-1} of
    those rows, gradient(stack, A_i, S_i^{-1}) the gradient, and norm2 and
    trace_sum the per-row sums over p of the gradient's squares and of Tr A_i."""

    layout: Callable
    trial: Callable
    kept_inverses: Callable
    gradient: Callable
    norm2: Callable
    trace_sum: Callable


def _matrix_objective() -> _Objective:
    """The objective on (B, p, n, n) stacks; at n = 1 the oracle of the scalar one."""
    return _Objective(lambda factors: factors, partial(_trial, ridge=RIDGE), _kept_inverses, _gradient,
                      _norm2, _trace_sum)


def _scalar_objective() -> _Objective:
    """The objective at n = 1 on flat (B, p) stacks."""
    return _Objective(lambda factors: factors.reshape(len(factors), -1), partial(_scalar_trial, ridge=RIDGE),
                      _scalar_inverses, _scalar_gradient, _scalar_norm2, _sum_over_p)


def _initial_factors(cfg: SearchConfig):
    """Starting factors of every restart, (restarts, p, n, n); restart r draws
    from its own stream. Scalar starts span orders of magnitude, like the
    known counterexamples: a_i = exp(u_i) for u_i uniform in [-3, 3)."""
    rngs = [rng_for(cfg.master_seed, r) for r in range(cfg.restarts)]
    if cfg.n == 1:
        a = np.exp(np.stack([rng.uniform(-3.0, 3.0, cfg.p) for rng in rngs]))
        return np.sqrt(a - RIDGE)[..., None, None]
    return np.stack([np.eye(cfg.n) + 0.5 * rng.standard_normal((cfg.p, cfg.n, cfg.n)) for rng in rngs])


def _evaluate(fn, stack):
    """``fn`` on the rows of ``stack`` that it can evaluate: (ok, fn(stack[ok])),
    ok None when it can evaluate all.

    A row is one family: a restart, or one trial step of a restart in a line
    search. Each row's value does not depend on which other rows share its
    stack. numpy raises LinAlgError for a whole stack when one matrix in it is
    singular, so the stack is then tried row by row and only the rows that
    fail on their own are left out.
    """
    try:
        return None, fn(stack)
    except np.linalg.LinAlgError:
        pass
    ok = np.ones(len(stack), dtype=bool)
    for r in range(len(ok)):
        try:
            fn(stack[r:r + 1])
        except np.linalg.LinAlgError:
            ok[r] = False
    return ok, fn(stack[ok])


def _try_steps(obj, ts, factors, grads, margin, gnorm2):
    """(stop, ok, gather) of one stacked evaluation of the trial steps ts
    (B, k) of B line searches of objective ``obj``: ``stop`` marks those that
    pass the Armijo test or raised, ``ok`` those evaluated (None: all), and
    gather(rows, first) takes evaluated ones (``_gather``)."""
    cand = factors[:, None] - ts[(..., *(None,) * (factors.ndim - 1))] * grads[:, None]
    stack = cand.reshape(-1, *cand.shape[2:])
    ok, (vals, mats, kept) = _evaluate(obj.trial, stack)
    if ok is not None:  # a trial step that raised has a nan margin, and stops its line search
        f2, vals = vals, np.full(len(stack), np.nan)
        vals[ok] = f2
        ok = ok.reshape(ts.shape)
    stop = vals.reshape(ts.shape) <= margin[:, None] - 1e-4 * ts * gnorm2[:, None]
    return stop if ok is None else stop | ~ok, ok, partial(_gather, obj, ts, stack, vals, ok, mats, kept)


def _gather(obj, ts, stack, vals, ok, mats, kept, rows, first):
    """(factors, margin, step, A_i, S_i^{-1}) at evaluated trial step first[j]
    of line search rows[j] of a ``_try_steps`` evaluation, whose ``stack`` and
    ``vals`` hold every trial step, line search after line search."""
    at = rows * ts.shape[1] + first
    pos = at if ok is None else np.cumsum(ok)[at] - 1  # its row among the evaluated trial steps
    return (stack.take(at, axis=0), vals.take(at), np.minimum(2.0 * ts.take(at), MAX_STEP),
            mats.take(pos, axis=0), obj.kept_inverses(mats, kept, pos))


class _Live:
    """The restarts of a descent that still descend, as compact arrays with one
    row each: restart index, factors, margin, step, A_i and S_i^{-1}, rebound
    each iteration to what its line search gathered. A restart that retires is
    written back by restart index to ``out`` = (factors, margins, iterations)."""

    def __init__(self, out, *state):
        self.out = out
        self.index, self.factors, self.margin, self.step, self.mats, self.invs = state

    def retire(self, gone, iters: int):
        """Writes back the rows of mask ``gone``, which ran ``iters`` iterations, and keeps the others."""
        factors, margins, done = self.out
        r = self.index[gone]
        factors[r], margins[r], done[r] = self.factors[gone], self.margin[gone], iters
        keep = ~gone
        self.index, self.factors, self.margin, self.step, self.mats, self.invs = (
            x[keep] for x in (self.index, self.factors, self.margin, self.step, self.mats, self.invs))


def _descend(cfg: SearchConfig, factors, obj: _Objective | None = None):
    """Armijo-backtracking gradient descent of all restarts in lockstep.

    ``factors`` is (restarts, p, n, n), evaluated through ``obj``: by
    default the scalar objective at n = 1 and the matrix one otherwise.
    Each restart keeps its own margin, step, iteration count and history, so
    its trajectory is the one it follows alone. An iteration is one accepted
    step; a restart stops when its gradient vanishes or a line search fails.
    A line search tries up to MAX_HALVINGS halvings of min(2 x the last
    accepted step, MAX_STEP), a chunk of HALVING_CHUNKS per stacked
    evaluation (``_try_steps``), and accepts the first that passes the
    Armijo test, as a search that tries one halving at a time does. An
    iteration forms the first chunk's halvings, and the others only when a
    restart is pending after it. The first chunk takes every live restart,
    and the live arrays (``_Live``) are rebound to what it gathers at each
    one's first stop (``_gather``): the next state, with the A_i and
    S_i^{-1} of the next gradient, or a placeholder that the later chunk
    where the restart stops overwrites. Only such a restart, or one that
    retires, writes or drops a row. Every 100 iterations the gauge fix
    rescales the factors.

    Returns (factors, margins, history, iters) by restart; ``history`` has
    one row of margins per iteration run, and restart r's are rows
    0..iters[r]. A restart whose evaluation raised LinAlgError (at the
    initial point, a trial step before the one it would accept, or a gauge
    fix) is retired there with a nan margin. The gradient is products of
    arrays already formed and cannot raise; a nan gradient fails the line
    search.
    """
    if obj is None:
        obj = _scalar_objective() if cfg.n == 1 else _matrix_objective()
    trial, gradient, norm2 = obj.trial, obj.gradient, obj.norm2
    out = np.array(factors, dtype=np.float64)
    factors = obj.layout(out)  # a view: a retired restart's row is written into ``out``
    f = np.full(len(factors), np.nan)
    iters = np.zeros(len(factors), dtype=int)
    # trial steps t, t/2, ... by repeated halving, as a serial line search
    # forms them (t * 0.5**j would round differently once t is subnormal):
    # row j of ``halvings`` is [t_j, 0.5, 0.5, ...], whose running product is
    # formed a chunk at a time, the whole row only when a restart is pending
    halvings = np.full((len(f), MAX_HALVINGS), 0.5)
    every = np.arange(len(f))
    ok, (f0, mats, kept) = _evaluate(trial, factors)
    index = every if ok is None else np.flatnonzero(ok)
    f[index] = f0
    history = np.full((min(cfg.max_iters, 63) + 1, len(f)), np.nan)
    history[0] = f
    live = _Live((factors, f, iters), index, factors[index], f0, np.full(len(f0), STEP_INIT),
                 mats, obj.kept_inverses(mats, kept, slice(None)))
    for it in range(1, cfg.max_iters + 1):
        if live.index.size == 0:
            break
        grads = gradient(live.factors, live.mats, live.invs)
        gnorm2 = norm2(grads)
        if np.fmin.reduce(gnorm2) < 1e-24:  # a nan norm goes on to fail the line search
            flat = gnorm2 < 1e-24
            live.retire(flat, it - 1)
            grads, gnorm2 = grads[~flat], gnorm2[~flat]
        steps = halvings[:len(grads)]
        steps[:, 0] = live.step
        rows = every[:len(grads)]
        stop, ok, gather = _try_steps(obj, np.multiply.accumulate(steps[:, :HALVING_CHUNKS[0]], axis=1),
                                      live.factors, grads, live.margin, gnorm2)
        first = stop.argmax(axis=1)
        if ok is not None:  # a restart whose first stop raised retires with a nan margin
            won = ok[rows, first]
            live.margin[~won] = np.nan
            live.retire(~won, it - 1)
            rows, first, grads, gnorm2 = (x[won] for x in (rows, first, grads, gnorm2))
        stopped = stop[rows, first]
        state = gather(rows, first)
        if not stopped.all():
            # a pending restart's row of ``state`` is overwritten in the chunk
            # it stops in; it retires if it fails every halving or its stop raised
            trials = np.multiply.accumulate(steps[rows], axis=1)
            gone = ~stopped
            pending, start = np.flatnonzero(gone), HALVING_CHUNKS[0]
            for k in HALVING_CHUNKS[1:]:
                stop, ok, gather = _try_steps(obj, trials[pending, start:start + k], live.factors[pending],
                                              grads[pending], live.margin[pending], gnorm2[pending])
                start += k
                hit = stop.any(axis=1)
                at = np.flatnonzero(hit)
                first = stop[at].argmax(axis=1)
                if ok is not None:
                    won = ok[at, first]
                    live.margin[pending[at[~won]]] = np.nan
                    at, first = at[won], first[won]
                for x, v in zip(state, gather(at, first)):
                    x[pending[at]] = v
                gone[pending[at]] = False
                pending = pending[~hit]
                if pending.size == 0:
                    break
            if gone.any():
                live.retire(gone, it - 1)
                state = (x[~gone] for x in state)
        live.factors, live.margin, live.step, live.mats, live.invs = state
        if it == len(history):
            history = np.vstack((history, np.full_like(history, np.nan)))
        history[it, live.index] = live.margin
        if it % 100 == 0:
            # gauge fix: the objective is scale invariant up to the ridge,
            # so renormalize total trace to p*n unless that would move uphill
            scale = cfg.p * cfg.n / obj.trace_sum(live.mats)
            fixed = np.sqrt(scale)[(..., *(None,) * (factors.ndim - 1))] * live.factors
            ok, (f_fixed, mats, kept) = _evaluate(trial, fixed)
            if ok is not None:
                live.margin[~ok] = np.nan
                live.retire(~ok, it)
                fixed = fixed[ok]
            keep = np.flatnonzero(f_fixed <= live.margin + 1e-12 * (1.0 + np.abs(live.margin)))
            live.factors[keep], live.margin[keep], live.mats[keep], live.invs[keep] = (
                fixed[keep], f_fixed[keep], mats[keep], obj.kept_inverses(mats, kept, keep))
    live.retire(np.ones(live.index.size, dtype=bool), cfg.max_iters)
    return out, f, history[:iters.max() + 1], iters


def classify_margin(margin: float) -> str:
    """Verdict on a re-verified margin: no counterexample found at or above 0,
    a verified counterexample at or below -NOISE_BAND, and numerical noise in
    between; a nan margin is noise."""
    if margin >= 0.0:
        return "no_counterexample_found"
    if margin <= -NOISE_BAND:
        return "verified_counterexample"
    return "numerical_noise"


def _recheck_trace(mats):
    """The re-check's F_p of stacked families (..., p, n, n), apart from the descent's
    kernel and ``inequalities._inv``: each gated S_i takes LAPACK's inverse, one Newton
    step and symmetrization. Raises IllConditioned when LAPACK fails or ||S_i X - I||
    exceeds 1e-10 * max(1, ||S_i|| ||X||), NotPositiveDefinite for an inverse not PD."""
    _require_cycle(mats.shape[-3])
    dens = _symmetrize(cyclic_denominators(mats))
    _pd_floor(dens)
    eye = np.eye(mats.shape[-1])
    try:
        x = np.linalg.inv(dens)
    except np.linalg.LinAlgError as exc:
        raise IllConditioned(str(exc)) from exc
    x = x @ (2.0 * eye - dens @ x)
    x = (x + _ct(x)) / 2.0
    residual = _fro(dens @ x - eye)
    bound = 1e-10 * np.fmax(1.0, _fro(dens) * _fro(x))
    bad = residual > bound
    if bad.any():
        raise IllConditioned(f"inverse residual {residual[bad][0]:g} exceeds bound {bound[bad][0]:g}")
    _pd_floor(x)
    return _sum_over_p(_rtr(mats @ x))


def minimize_margin(cfg: SearchConfig) -> SearchResult:
    """Multi-restart descent on the margin; deterministic for a fixed config.

    The restarts run in lockstep (see ``_descend``). They are cut into
    W = min(``_cpu_count()``, restarts, max(1, work // FLOOR)) contiguous
    shares, where work = restarts x p x n**2 x max_iters (see
    :func:`cyclicpd._fork.workers_for`); each share descends in lockstep,
    share 0 here and the others in forked processes (see
    :func:`cyclicpd._fork.run_units`), and the shares' arrays are joined in
    restart order; at W = 1 the one share descends here and its arrays are
    used as they are, with no split and no join. Restarts are independent,
    so the result is the same at every W. Restarts with a non-finite margin
    (nan if ``_descend`` retired them) are dropped, and ``iterations_used``
    sums the accepted steps of the others. The winner's margin is computed
    again on a separate path (``_recheck_trace``), held to the descent's
    within 1e-9 relative, then reported and classified (``classify_margin``).
    """
    starts = _initial_factors(cfg)
    workers = workers_for(cfg.restarts * cfg.p * cfg.n**2 * cfg.max_iters, cfg.restarts, _cpu_count())
    if workers == 1:
        factors, margins, history, iters = _descend(cfg, starts)
    else:
        shares = np.array_split(starts, workers)
        parts = run_units([partial(_descend, cfg, share) for share in shares],
                          [len(share) for share in shares], workers)
        factors, margins, histories, iters = zip(*parts)
        factors, margins, iters = (np.concatenate(x) for x in (factors, margins, iters))
        depth = max(len(h) for h in histories)  # shares stop at different iterations
        history = np.hstack([np.pad(h, ((0, depth - len(h)), (0, 0)), constant_values=np.nan)
                             for h in histories])
    survivors = np.isfinite(margins)
    if not survivors.any():
        raise RuntimeError("all restarts diverged")
    # deterministic merge: lowest margin, ties broken by lowest restart index
    r = int(np.argmin(np.where(survivors, margins, np.inf)))
    f, factors = float(margins[r]), factors[r]
    history = list(enumerate(history[:iters[r] + 1, r].tolist()))
    total_iters = int(iters[survivors].sum())
    mats = _mats_from_factors(factors, RIDGE)
    mats = (mats + np.swapaxes(mats, -1, -2)) / 2.0
    mats.setflags(write=False)
    recomputed = float(_recheck_trace(mats)) - cfg.p * cfg.n / 2.0
    if abs(recomputed - f) > 1e-9 * (1.0 + abs(f)):
        raise RuntimeError(f"soundness gate: optimizer margin {f!r} disagrees with "
                           f"re-verified margin {recomputed!r}")
    return SearchResult(
        best_family=mats,
        best_margin=recomputed,
        iterations_used=total_iters,
        margin_history=history,
        classification=classify_margin(recomputed),
        restart_index=r,
    )
