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
evaluated in stacked chunks of 3, 8, 16 and 23 trial steps per restart, with
the result of trying them one at a time. Every 100 iterations a gauge fix
rescales the factors. The margin is the cyclic trace sum of
``inequalities.cyclic_traces``, the one kernel that verify and ``eval`` use
too, with the program's one inversion rule per S_i: division at n = 1, a
closed form at n = 2 and 3 where its guard admits S_i, LAPACK otherwise (one
solve per refused term, a symmetrized inverse). Each iterate is evaluated
once: the trial evaluation that accepts it keeps its A_i and what it formed
S_i from, and the next gradient takes S_i^{-1} from those by the same rule,
bit for bit what ``margin_gradient`` (A_i and ``cyclic_inverses`` formed
afresh) gives. The descent carries only the restarts still descending. The
restarts are cut into contiguous shares, one per process that
``_fork.workers_for`` grants the search's work (restarts x p x n**2 x
max_iters), and each share descends in a forked process; a search below the
fork floor, such as a small or scalar one, runs as one stack in this process.
The winner's margin is re-checked with refined inverses; at or below
-NOISE_BAND (1e-8) it is a verified counterexample, in (-1e-8, 0) noise.

Known scalar behavior consumed as search targets: the scalar inequality holds
exactly for p in {3..12} and odd p <= 23, and fails for even p in 14..22 and
all p > 23. The open question is whether the matrix version survives at
p = 12 and p = 23 for n >= 2; ``probe_conjecture`` targets exactly that.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache, partial

import numpy as np

from ._fork import cpu_count as _cpu_count, run_units, workers_for
from .inequalities import (_cyclic_traces, _kept_inverses, _refined_cyclic_sum_trace, _sum_over_p,
                           cyclic_inverses, cyclic_shift)
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
    margin_history: list
    classification: str
    restart_index: int

    def to_dict(self) -> dict:
        return {
            "best_margin": self.best_margin,
            "iterations_used": self.iterations_used,
            "classification": self.classification,
            "restart_index": self.restart_index,
            "margin_history": [[int(i), float(m)] for i, m in self.margin_history],
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
# Objective and gradient on the factor parameterization
# ---------------------------------------------------------------------------
#
# The kernels take factors stacked as (..., p, n, n), one family per restart,
# and evaluate them through the cyclic trace and inverse kernels of
# ``inequalities``; L L^T rounds to an exactly symmetric matrix, as their 2x2
# and 3x3 closed form needs.


@lru_cache(maxsize=128)
def _eye(n: int) -> np.ndarray:
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def _mats_from_factors(factors, ridge: float):
    # a contiguous transpose takes numpy's faster matmul path and rounds the
    # same as the transposed view
    return factors @ np.ascontiguousarray(factors.swapaxes(-1, -2)) + ridge * _eye(factors.shape[-1])


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
    d = invs - cyclic_shift(ks, -1) - cyclic_shift(ks, -2)
    return 2.0 * d @ factors


def _init_factors(cfg: SearchConfig, rng: np.random.Generator):
    if cfg.n == 1:
        # scalar starts span orders of magnitude, like the known counterexamples
        a = np.exp(rng.uniform(-3.0, 3.0, cfg.p))
        return np.sqrt(a - RIDGE).reshape(cfg.p, 1, 1)
    return np.eye(cfg.n) + 0.5 * rng.standard_normal((cfg.p, cfg.n, cfg.n))


def _initial_factors(cfg: SearchConfig):
    """Starting factors of every restart, (restarts, p, n, n); restart r has its own stream."""
    return np.stack([
        _init_factors(cfg, np.random.default_rng(
            np.random.SeedSequence(entropy=cfg.master_seed, spawn_key=(r,))))
        for r in range(cfg.restarts)
    ])


def _evaluate(fn, stack):
    """``fn`` on the rows of ``stack`` that it can evaluate: (ok, fn(stack[ok])).

    A row is one family: a restart, or one trial step of a restart in a line
    search. Each row's value does not depend on which other rows share its
    stack. numpy raises LinAlgError for a whole stack when one matrix in it is
    singular, so the stack is then tried row by row and only the rows that
    fail on their own are left out.
    """
    ok = np.ones(len(stack), dtype=bool)
    try:
        return ok, fn(stack)
    except np.linalg.LinAlgError:
        pass
    for r in range(len(ok)):
        try:
            fn(stack[r:r + 1])
        except np.linalg.LinAlgError:
            ok[r] = False
    return ok, fn(stack[ok])


class _Live:
    """The restarts of a descent that still descend, as compact arrays with one
    row each: restart index, factors, margin, step, A_i and S_i^{-1}. A restart
    that retires is written back to the descent's arrays by restart index,
    ``out`` = (factors, margins, iterations)."""

    def __init__(self, out, index, factors, margin, step, mats, invs):
        self.out = out
        self.index, self.factors, self.margin, self.step, self.mats, self.invs = (
            index, factors, margin, step, mats, invs)

    def accept(self, rows, factors, margin, step, mats, invs):
        """Rows ``rows`` move to a new iterate."""
        self.factors[rows], self.margin[rows], self.mats[rows], self.invs[rows] = factors, margin, mats, invs
        if step is not None:
            self.step[rows] = step

    def retire(self, gone, iters: int):
        """Writes back the rows of mask ``gone``, which ran ``iters``
        iterations, and keeps the others."""
        factors, margins, done = self.out
        r = self.index[gone]
        factors[r], margins[r], done[r] = self.factors[gone], self.margin[gone], iters
        keep = ~gone
        self.index, self.factors, self.margin, self.step, self.mats, self.invs = (
            x[keep] for x in (self.index, self.factors, self.margin, self.step, self.mats, self.invs))


def _descend(cfg: SearchConfig, factors):
    """Armijo-backtracking gradient descent of all restarts in lockstep.

    ``factors`` is (restarts, p, n, n). Each restart keeps its own margin,
    step, trial step, iteration count and history, and nothing reduced across
    restarts steers one, so every trajectory is the one the restart follows
    alone. An iteration is one accepted step; a restart stops when its
    gradient vanishes or a line search fails. Each line search starts at
    min(2 x the last accepted step, MAX_STEP) and tries up to MAX_HALVINGS
    halvings; for every pending restart, one ``_evaluate`` call of ``_trial``
    takes the next chunk of HALVING_CHUNKS trial steps as one stacked
    evaluation, and the restart accepts its first trial step that passes the
    Armijo test. Trial steps after that one are discarded, so the result is
    that of a search that tries one halving at a time. Every 100 iterations
    the gauge fix rescales the factors.

    Each iterate is evaluated once: the trial evaluation that accepts it
    forms its A_i and the cofactors of its S_i, and the next gradient
    (``_gradient``) reads the A_i and the S_i^{-1} assembled from them (see
    ``inequalities._kept_inverses``), bit for bit what ``margin_gradient``
    forms again. Only the live restarts are carried, as ``_Live``.

    Returns (factors, margins, history, iters) by restart; ``history`` has
    one row of margins per iteration run, and restart r's are rows
    0..iters[r]. A restart whose evaluation raised LinAlgError (at the
    initial point, a trial step before the one it would accept, or a gauge
    fix) is retired there: its margin is nan. The gradient is matrix
    products of arrays already formed and cannot raise; a nan gradient fails
    the line search.
    """
    trial = partial(_trial, ridge=RIDGE)
    factors = np.array(factors, dtype=np.float64)
    f = np.full(len(factors), np.nan)
    iters = np.zeros(len(factors), dtype=int)
    ok, (f0, mats, kept) = _evaluate(trial, factors)
    f[ok] = f0
    history = [f.copy()]
    live = _Live((factors, f, iters), np.flatnonzero(ok), factors[ok], f0, np.full(len(f0), STEP_INIT),
                 mats, _kept_inverses(mats, kept, slice(None)))
    for it in range(1, cfg.max_iters + 1):
        if live.index.size == 0:
            break
        grads = _gradient(live.factors, live.mats, live.invs)
        gnorm2 = _sum_over_p((grads * grads).reshape(len(grads), cfg.p, cfg.n * cfg.n).sum(axis=-1))
        moving = ~(gnorm2 < 1e-24)  # a nan norm goes on to fail the line search
        if not moving.all():
            live.retire(~moving, it - 1)
            grads, gnorm2 = grads[moving], gnorm2[moving]
        # trial steps t, t/2, ... by repeated halving, as a serial line search
        # forms them: t * 0.5**j would round differently once t is subnormal
        halvings = np.full((len(grads), MAX_HALVINGS), 0.5)
        halvings[:, 0] = live.step
        trials = np.multiply.accumulate(halvings, axis=1)
        accepted = np.zeros(len(grads), dtype=bool)
        pending = None  # the first chunk takes every restart
        start = 0
        for k in HALVING_CHUNKS:
            if pending is None:
                ts, base, g, f_base, g2 = trials[:, :k], live.factors, grads, live.margin, gnorm2
            else:
                ts, base, g = trials[pending, start:start + k], live.factors[pending], grads[pending]
                f_base, g2 = live.margin[pending], gnorm2[pending]
            start += k
            cand = base[:, None] - ts[:, :, None, None, None] * g[:, None]
            ok, (f2, mats, kept) = _evaluate(trial, cand.reshape(-1, *cand.shape[2:]))
            raised = not ok.all()
            if raised:
                ok = ok.reshape(ts.shape)
                vals = np.full(ts.shape, np.nan)
                vals[ok] = f2
            else:
                vals = f2.reshape(ts.shape)
            win = vals <= f_base[:, None] - 1e-4 * ts * g2[:, None]
            # each restart stops at its first halving that raised or passed;
            # the halvings after it are discarded, unseen by the serial search
            stop = win | ~ok if raised else win  # a trial step that raised has a nan margin
            stopped = stop.any(axis=1)
            rows = np.flatnonzero(stopped)
            first = stop[rows].argmax(axis=1)
            at = rows if pending is None else pending[rows]
            # row of each accepted trial step in the evaluated rows
            pos = rows * k + first
            if raised:
                won = ok[rows, first]
                live.margin[at[~won]] = np.nan
                rows, first, at = rows[won], first[won], at[won]
                pos = np.cumsum(ok)[pos[won]] - 1
            live.accept(at, cand[rows, first], vals[rows, first], np.minimum(2.0 * ts[rows, first], MAX_STEP),
                        mats[pos], _kept_inverses(mats, kept, pos))
            accepted[at] = True
            if stopped.all():
                break
            pending = np.flatnonzero(~stopped) if pending is None else pending[~stopped]
        if not accepted.all():
            live.retire(~accepted, it - 1)
        if live.index.size == 0:
            break
        row = np.full(len(f), np.nan)
        row[live.index] = live.margin
        history.append(row)
        if it % 100 == 0:
            # gauge fix: the objective is scale invariant up to the ridge,
            # so renormalize total trace to p*n unless that would move uphill
            scale = cfg.p * cfg.n / _sum_over_p(live.mats.trace(axis1=-2, axis2=-1))
            fixed = np.sqrt(scale)[:, None, None, None] * live.factors
            ok, (f_fixed, mats, kept) = _evaluate(trial, fixed)
            if not ok.all():
                live.margin[~ok] = np.nan
                live.retire(~ok, it)
                fixed = fixed[ok]
            f_cur = live.margin
            keep = np.flatnonzero(f_fixed <= f_cur + 1e-12 * (1.0 + np.abs(f_cur)))
            live.accept(keep, fixed[keep], f_fixed[keep], None, mats[keep], _kept_inverses(mats, kept, keep))
    live.retire(np.ones(live.index.size, dtype=bool), cfg.max_iters)
    return factors, f, np.array(history), iters


def classify_margin(margin: float) -> str:
    """Verdict on a re-verified margin: no counterexample found at or above 0,
    a verified counterexample at or below -NOISE_BAND, and numerical noise in
    between; a nan margin is noise."""
    if margin >= 0.0:
        return "no_counterexample_found"
    if margin <= -NOISE_BAND:
        return "verified_counterexample"
    return "numerical_noise"


def minimize_margin(cfg: SearchConfig) -> SearchResult:
    """Multi-restart descent on the margin; deterministic for a fixed config.

    The restarts run in lockstep (see ``_descend``). They are cut into
    W = min(``_cpu_count()``, restarts, max(1, work // FLOOR)) contiguous
    shares, where work = restarts x p x n**2 x max_iters (see
    :func:`cyclicpd._fork.workers_for`); each share descends in lockstep,
    share 0 here and the others in forked processes (see
    :func:`cyclicpd._fork.run_units`), and the shares' arrays are joined in
    restart order. Restarts are independent, so the result is the same at
    every W. Restarts with a non-finite margin (nan if ``_descend`` retired
    them) are dropped, and ``iterations_used`` sums the accepted steps of the
    others. The winning family is re-evaluated through the checker path with
    fresh refined inverses before being reported, and that margin is
    classified (``classify_margin``).
    """
    starts = _initial_factors(cfg)
    workers = workers_for(cfg.restarts * cfg.p * cfg.n**2 * cfg.max_iters, cfg.restarts, _cpu_count())
    shares = np.array_split(starts, workers)
    parts = run_units([partial(_descend, cfg, share) for share in shares],
                      [len(share) for share in shares], workers)
    factors, margins, histories, iters = zip(*parts)
    factors, margins, iters = (np.concatenate(x) for x in (factors, margins, iters))
    depth = max(len(h) for h in histories)  # shares stop at different iterations
    history = np.hstack([np.pad(h, ((0, depth - len(h)), (0, 0)), constant_values=np.nan) for h in histories])
    survivors = np.isfinite(margins)
    if not survivors.any():
        raise RuntimeError("all restarts diverged")
    # deterministic merge: lowest margin, ties broken by lowest restart index
    r = int(np.argmin(np.where(survivors, margins, np.inf)))
    f, factors = float(margins[r]), factors[r]
    history = [(k, float(m)) for k, m in enumerate(history[:iters[r] + 1, r])]
    total_iters = int(iters[survivors].sum())
    mats = _mats_from_factors(factors, RIDGE)
    mats = (mats + np.swapaxes(mats, -1, -2)) / 2.0
    mats.setflags(write=False)
    recomputed = _refined_cyclic_sum_trace(mats) - cfg.p * cfg.n / 2.0
    if abs(recomputed - f) > 1e-9 * (1.0 + abs(f)):
        raise RuntimeError(
            f"soundness gate: optimizer margin {f!r} disagrees with "
            f"re-verified margin {recomputed!r}"
        )
    return SearchResult(
        best_family=mats,
        best_margin=recomputed,
        iterations_used=total_iters,
        margin_history=history,
        classification=classify_margin(recomputed),
        restart_index=r,
    )


def probe_conjecture(p: int, cfg: SearchConfig, dims=(1, 2, 3)) -> dict:
    """Sweep n over ``dims`` at p in {12, 23}; returns {n: SearchResult}.

    A verified negative margin at any n is a conjecture-relevant event and is
    carried in the result's classification, never suppressed.
    """
    if p not in (12, 23):
        raise ValueError("the open cases are p = 12 and p = 23")
    results = {}
    for n in dims:
        results[n] = minimize_margin(replace(cfg, p=p, n=n))
    return results
