"""Counterexample search over products of the positive definite cone.

Minimizes the cyclic trace-sum margin (the defect of the conditional bound
Tr-sum >= p*n/2) by multi-restart gradient descent with Armijo backtracking.
Iterates are parameterized as A_i = L_i L_i^T + ridge*I, so the feasible set
is unconstrained and every iterate stays strictly positive definite. The
restarts descend in lockstep as one (restarts, p, n, n) stack; each keeps its
own step and stopping state, so a restart's trajectory does not depend on
which other restarts run beside it. An iteration is one accepted step. Each
line search starts at min(2 x the restart's last accepted step, 1e3) (the
first at ``step_init``) and tries at most 50 halvings of it; the halvings are
evaluated in stacked chunks of 3, 8, 16 and 23 trial steps per restart, with
the result of trying them one at a time. Every 100 iterations a gauge fix
rescales the factors. The denominators S_i = A_{i+1} + A_{i+2} are divided
by at n = 1, inverted in closed form (cofactors over the determinant) at
n = 2 and 3, and solved by LAPACK at n >= 4; a family whose S_i fail the
closed form's conditioning guard goes to LAPACK too. At n >= 2 the restarts
are cut into one contiguous share per CPU this process may use, and each
share descends in a forked process; at n = 1 the work is per-call overhead
that a fork would only add to, so one stack runs in this process.

Known scalar behavior consumed as search targets: the scalar inequality holds
exactly for p in {3..12} and odd p <= 23, and fails for even p in 14..22 and
all p > 23. The open question is whether the matrix version survives at
p = 12 and p = 23 for n >= 2; ``probe_conjecture`` targets exactly that.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from functools import lru_cache, partial

import numpy as np

from ._fork import cpu_count as _cpu_count, run_units
from .pdcore import DEFAULT_TOL, CyclicFamily, Tolerance, validate_family
from .inequalities import _shift_index, _sum_over_p, cyclic_denominators, cyclic_shift, cyclic_sum_trace, cyclic_traces
from .serialize import family_to_dict

NOISE_FACTOR = 10.0  # margins in (-NOISE_FACTOR*tol, 0) are classified as round-off
# Largest accepted ridge: from about 1e154 the squared entries that the
# re-check's norms and residual gate form overflow, and the search would
# report margin 0 after overflow warnings.
MAX_RIDGE = 1e100
# Smallest accepted ridge: a member at the ridge floor keeps its smallest
# eigenvalue above the 1e-12 floor that ``eval`` applies when it loads a
# ``best_family``, so every reported family replays.
MIN_RIDGE = 1e-10
# Largest step a line search starts from, and so the largest accepted
# step_init: from a start of about 1e16 up, 50 halvings never reach a step
# the line search accepts, and the search would report its starting point.
MAX_STEP = 1e3
# A line search tries at most MAX_HALVINGS trial steps, evaluated in stacked
# chunks of these sizes: most accept within the first chunk, and a restart
# that fails them all costs four stacked evaluations, not fifty.
HALVING_CHUNKS = (3, 8, 16, 23)
MAX_HALVINGS = sum(HALVING_CHUNKS)
VERIFY_TOL = Tolerance(rel=1e-12, abs=1e-15)


@dataclass(frozen=True)
class SearchConfig:
    """Budget and reproducibility knobs for one search run."""

    p: int
    n: int = 1
    restarts: int = 32
    max_iters: int = 3000
    step_init: float = 0.5
    ridge: float = 1e-8
    master_seed: int = 0

    def __post_init__(self):
        if self.p < 3:
            raise ValueError("p must be >= 3")
        if self.n < 1 or self.restarts < 1 or self.max_iters < 1:
            raise ValueError("n, restarts and max_iters must be positive")
        if not (0.0 < self.step_init <= MAX_STEP and MIN_RIDGE <= self.ridge <= MAX_RIDGE):
            raise ValueError(
                f"step_init must be in (0, {MAX_STEP:g}], and ridge in [{MIN_RIDGE:g}, {MAX_RIDGE:g}]"
            )

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SearchResult:
    best_family: CyclicFamily
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


def shapiro_margin(f: CyclicFamily) -> float:
    """Defect of the conditional trace bound; negative means counterexample candidate."""
    return cyclic_sum_trace(f) - f.p * f.dim / 2.0


def diagonal_embed(scalars, n: int) -> CyclicFamily:
    """Lift positive scalars to a_i * I_n; the trace functional scales by n."""
    a = np.array([float(v) for v in scalars])
    if min(a) <= 0:
        raise ValueError("scalars must be positive")
    if n < 1:
        raise ValueError("n must be >= 1")
    return CyclicFamily(validate_family(a[:, None, None] * np.eye(n)))


# ---------------------------------------------------------------------------
# Objective and gradient on the factor parameterization
# ---------------------------------------------------------------------------
#
# The kernels take factors stacked as (..., p, n, n): the leading axes index
# restarts, so one call evaluates every restart at once. Cyclic neighbours are
# gathered by index (``cyclic_shift``). At n = 1 the denominators S_i are
# divided by; at n >= 4 one batched LAPACK solve (or inv) covers every
# restart. At n = 2 and 3 each S_i is inverted in closed form: L L^T rounds
# to an exactly symmetric matrix, so S_i is one too, and its cofactors and
# determinant come from its n(n+1)/2 unique entries by elementwise products,
# with S_i^{-1} = cof / det. The closed form's relative error grows like
# eps / (det / prod(diag S_i)), so a family with any S_i whose det is not
# finite and positive or whose ratio det / prod(diag) is below MIN_DET_RATIO
# is evaluated by the LAPACK path instead, with that path's value, nan or
# LinAlgError. Sums over the p axis and over a block's entries add in order
# (``_sum_over_p``, fixed-order elementwise adds), so a family's result does
# not depend on the stack it is in. Each path rounds exactly as the np.roll /
# LAPACK / closed-form Python-loop oracle it is tested against
# (tests/looped_oracle.py, tests/test_search.py).

# Smallest det / prod(diag) of a 2x2 or 3x3 denominator that the closed form
# takes. Against an extended-precision reference, on 4e5 random SPD blocks
# per n and kind (condition numbers up to 1e7; one scale per block, or each
# row and column scaled by e^-8..e^8), the closed form's relative error
# stayed below 4e-13 at ratios from 1e-3 up, and grows as 1 / ratio below.
# LAPACK's was up to 6e-13 there on blocks of one scale, and up to 1.5e-10
# on the rescaled ones.
MIN_DET_RATIO = 1e-3
# Flat positions of a symmetric block's unique entries (upper triangle, row
# by row), and the full block from them. The closed form holds a stack of
# blocks entries first, (u, p, B), so each entry is one contiguous array.
_UNIQUE = {2: np.array([0, 1, 3]), 3: np.array([0, 1, 2, 4, 5, 8])}
_FULL = {2: np.array([0, 1, 1, 2]), 3: np.array([0, 1, 2, 1, 3, 4, 2, 4, 5])}
# Weight of each unique entry in a trace sum_jk C_jk A_jk of two symmetric
# blocks: an off-diagonal entry counts twice.
_WEIGHT = {2: np.array([1.0, 2.0, 1.0]).reshape(3, 1, 1),
           3: np.array([1.0, 2.0, 2.0, 1.0, 2.0, 1.0]).reshape(6, 1, 1)}
# 2x2 cofactors from (s00, s01, s11): (s11, -s01, s00)
_SIGN2 = np.array([1.0, -1.0, 1.0]).reshape(3, 1, 1)
# 3x3 cofactors from u = (s00, s01, s02, s11, s12, s22): row k of _COF3 picks
# the factors x_k, and cof = x_0 * x_1 - x_2 * x_3, e.g. cof_00 = s11 * s22 - s12 * s12
_COF3 = np.array([
    [3, 4, 1, 0, 1, 0],
    [5, 2, 4, 5, 2, 3],
    [4, 1, 3, 2, 0, 1],
    [4, 5, 2, 2, 4, 1],
]).ravel()


@lru_cache(maxsize=128)
def _eye(n: int) -> np.ndarray:
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def _mats_from_factors(factors, ridge: float):
    # a contiguous transpose takes numpy's faster matmul path and rounds the
    # same as the transposed view
    return factors @ np.ascontiguousarray(factors.swapaxes(-1, -2)) + ridge * _eye(factors.shape[-1])


def _cofactors(s):
    """Cofactors, determinant and guard of symmetric 2x2 or 3x3 blocks.

    ``s`` holds the blocks' unique entries first, (3, p, B) or (6, p, B), in
    ``_UNIQUE`` order; returns the cofactors in the same layout, the
    determinant (the first row times its cofactors, added in order), and
    whether the closed form may be used: det finite, positive and at least
    MIN_DET_RATIO times the product of the diagonal.
    """
    if len(s) == 3:
        n = 2
        cof = s[::-1] * _SIGN2
        diag = s[0] * s[2]
    else:
        n = 3
        x = s.take(_COF3, axis=0).reshape((4, 6) + s.shape[1:])
        cof = x[0] * x[1] - x[2] * x[3]
        diag = s[0] * s[3] * s[5]
    row = s[:n] * cof[:n]
    det = row[0] + row[1]
    if n == 3:
        det += row[2]
    ok = (det > 0.0) & (det < np.inf) & (det >= MIN_DET_RATIO * diag)
    return cof, det, ok


@lru_cache(maxsize=128)
def _gather_index(p: int, n: int) -> np.ndarray:
    """Flat positions in a (p, n, n) family of the unique entries of A_{i+k},
    k = 0, 1, 2, as (3, u, p)."""
    idx = np.stack([_shift_index(p, k) * (n * n) + _UNIQUE[n][:, None] for k in range(3)])
    idx.flags.writeable = False
    return idx


def _closed_form(mats):
    """For families (B, p, n, n) at n in {2, 3}: the unique entries of each
    A_i, and the cofactors and determinant of each S_i = A_{i+1} + A_{i+2},
    entries first, (u, p, B) and (p, B); and, per family, whether every S_i
    passes the guard."""
    b, p, n = mats.shape[0], mats.shape[1], mats.shape[-1]
    x = mats.reshape(b, p * n * n).T.take(_gather_index(p, n), axis=0)
    a, s = x[0], x[1] + x[2]
    cof, det, ok = _cofactors(s)
    return a, cof, det, ok.all(axis=0)


def _margin_value(factors, ridge: float):
    """Margin of stacked factors (..., p, n, n); one family's p blocks give a scalar."""
    mats = _mats_from_factors(np.asarray(factors, dtype=np.float64), ridge)
    p, n = mats.shape[-3], mats.shape[-1]
    if n not in _UNIQUE:
        return cyclic_traces(mats) - p * n / 2.0
    lead, mats = mats.shape[:-3], mats.reshape((-1,) + mats.shape[-3:])
    # families the guard refuses are evaluated again below; nothing here may warn
    with np.errstate(all="ignore"):
        a, cof, det, ok = _closed_form(mats)
        # Tr(S_i^{-1} A_i) = sum_jk cof_jk (A_i)_jk / det, entries added in order
        terms = cof * a * _WEIGHT[n]
        tr = terms[0] + terms[1]
        for t in terms[2:]:
            tr += t
        traces = _sum_over_p((tr / det).T)
    if not ok.all():
        traces[~ok] = cyclic_traces(mats[~ok])
    return traces.reshape(lead) - p * n / 2.0


def _inverses(mats):
    """S_i^{-1} of families (..., p, n, n), n in {2, 3}: cof / det, or LAPACK
    for a family the guard refuses."""
    n = mats.shape[-1]
    flat = mats.reshape((-1,) + mats.shape[-3:])
    invs = np.empty(flat.shape[:-2] + (n * n,))
    with np.errstate(all="ignore"):
        _, cof, det, ok = _closed_form(flat)
        # written through the (n*n, p, B) view of invs, which stays C-contiguous
        np.divide(cof.take(_FULL[n], axis=0), det, out=invs.T)
    invs = invs.reshape(flat.shape)
    if not ok.all():
        invs[~ok] = np.linalg.inv(cyclic_denominators(flat[~ok]))
    return invs.reshape(mats.shape)


def margin_gradient(factors, ridge: float):
    """Exact gradient of the margin under A_i = L_i L_i^T + ridge*I.

    Uses d Tr(A S^{-1}) = Tr(S^{-1} dA) - Tr(S^{-1} A S^{-1} dS) and the chain
    rule through the factorization; matches central finite differences.
    Takes stacked factors (..., p, n, n) (or a list of p blocks) and returns
    an array of that shape.
    """
    factors = np.asarray(factors, dtype=np.float64)
    mats = _mats_from_factors(factors, ridge)
    n = mats.shape[-1]
    if n in _UNIQUE:
        invs = _inverses(mats)
    elif n == 1:
        # 1x1 blocks divide, as in cyclic_terms; a 1x1 inv rounds the same
        invs = 1.0 / cyclic_denominators(mats)
    else:
        invs = np.linalg.inv(cyclic_denominators(mats))
    # K_i := S_i^{-1} A_i S_i^{-1} is the sensitivity of term i to its denominator
    ks = invs @ mats @ invs
    d = invs - cyclic_shift(ks, -1) - cyclic_shift(ks, -2)
    return 2.0 * d @ factors


def _init_factors(cfg: SearchConfig, rng: np.random.Generator):
    if cfg.n == 1:
        # scalar starts span orders of magnitude, like the known counterexamples
        a = np.exp(rng.uniform(-3.0, 3.0, cfg.p))
        return np.sqrt(np.maximum(a - cfg.ridge, 1e-12)).reshape(cfg.p, 1, 1)
    return np.eye(cfg.n) + 0.5 * rng.standard_normal((cfg.p, cfg.n, cfg.n))


def _initial_factors(cfg: SearchConfig):
    """Starting factors of every restart, (restarts, p, n, n); restart r has its own stream."""
    return np.stack([
        _init_factors(cfg, np.random.default_rng(
            np.random.SeedSequence(entropy=cfg.master_seed, spawn_key=(r,))))
        for r in range(cfg.restarts)
    ])


def _evaluate(fn, factors, ridge: float):
    """``fn`` on the rows of a stack that it can evaluate: (ok, fn(factors[ok])).

    A row is one family's factors: a restart, or one trial step of a restart
    in a line search. Each row's value does not depend on which other rows
    share its stack. numpy raises LinAlgError for a whole stack when one
    matrix in it is singular, so the stack is then tried row by row and only
    the rows that fail on their own are left out.
    """
    ok = np.ones(len(factors), dtype=bool)
    try:
        return ok, fn(factors, ridge)
    except np.linalg.LinAlgError:
        pass
    for r in range(len(factors)):
        try:
            fn(factors[r:r + 1], ridge)
        except np.linalg.LinAlgError:
            ok[r] = False
    return ok, fn(factors[ok], ridge)


def _descend(cfg: SearchConfig, factors):
    """Armijo-backtracking gradient descent of all restarts in lockstep.

    ``factors`` is (restarts, p, n, n). Each restart keeps its own margin,
    step, trial step, iteration count and history, and nothing reduced across
    restarts steers one, so every trajectory is the one the restart follows
    alone. An iteration is one accepted step; a restart stops when its
    gradient vanishes or a line search fails. Each line search starts at
    min(2 x the last accepted step, MAX_STEP) and tries up to MAX_HALVINGS
    halvings; for every pending restart, one ``_evaluate`` call takes the
    next chunk of HALVING_CHUNKS trial steps as one stacked evaluation, and
    the restart accepts its first trial step that passes the Armijo test.
    Trial steps after that one are discarded, so the result is that of a
    search that tries one halving at a time. Every 100 iterations the gauge
    fix rescales the factors. Returns (factors, margins, histories, iters);
    a restart whose evaluation raised LinAlgError (at the initial point, a
    gradient, or a trial step before the one it would accept) is retired
    there with margin nan.
    """
    ridge = cfg.ridge
    factors = np.array(factors, dtype=np.float64)
    ok, f0 = _evaluate(_margin_value, factors, ridge)
    f = np.full(len(factors), np.nan)
    f[ok] = f0
    histories = [[(0, float(v))] for v in f]
    step = np.full(len(factors), cfg.step_init)
    iters = np.zeros(len(factors), dtype=int)
    diverged = ~ok
    live = np.flatnonzero(ok)
    for it in range(1, cfg.max_iters + 1):
        if live.size == 0:
            break
        ok, grads = _evaluate(margin_gradient, factors[live], ridge)
        diverged[live[~ok]] = True
        live = live[ok]
        gnorm2 = _sum_over_p((grads * grads).reshape(len(live), cfg.p, cfg.n * cfg.n).sum(axis=-1))
        moving = ~(gnorm2 < 1e-24)  # a nan norm goes on to fail the line search
        live, grads, gnorm2 = live[moving], grads[moving], gnorm2[moving]
        # trial steps t, t/2, ... by repeated halving, as a serial line search
        # forms them: t * 0.5**j would round differently once t is subnormal
        halvings = np.full((len(live), MAX_HALVINGS), 0.5)
        halvings[:, 0] = step[live]
        trials = np.multiply.accumulate(halvings, axis=1)
        accepted = np.zeros(len(live), dtype=bool)
        pending = np.arange(len(live))
        start = 0
        for k in HALVING_CHUNKS:
            if pending.size == 0:
                break
            ts = trials[pending, start:start + k]
            start += k
            cand = factors[live[pending], None] - ts[:, :, None, None, None] * grads[pending, None]
            ok, f2 = _evaluate(_margin_value, cand.reshape(-1, *cand.shape[2:]), ridge)
            ok = ok.reshape(ts.shape)
            vals = np.full(ts.shape, np.nan)
            vals[ok] = f2
            win = ok & (vals <= f[live[pending], None] - 1e-4 * ts * gnorm2[pending, None])
            # each restart stops at its first halving that raised or passed;
            # the halvings after it are discarded, unseen by the serial search
            stop = win | ~ok
            stopped = stop.any(axis=1)
            rows = np.flatnonzero(stopped)
            first = stop[rows].argmax(axis=1)
            won = win[rows, first]
            diverged[live[pending[rows[~won]]]] = True
            rows, first = rows[won], first[won]
            done = live[pending[rows]]
            factors[done], f[done] = cand[rows, first], vals[rows, first]
            step[done] = np.minimum(2.0 * ts[rows, first], MAX_STEP)
            accepted[pending[rows]] = True
            pending = pending[~stopped]
        live = live[accepted]
        if live.size == 0:
            break
        iters[live] = it
        for r in live:
            histories[r].append((it, float(f[r])))
        if it % 100 == 0:
            # gauge fix: the objective is scale invariant up to the ridge,
            # so renormalize total trace to p*n unless that would move uphill
            mats = _mats_from_factors(factors[live], ridge)
            scale = cfg.p * cfg.n / _sum_over_p(np.trace(mats, axis1=-2, axis2=-1))
            fixed = np.sqrt(scale)[:, None, None, None] * factors[live]
            ok, f_fixed = _evaluate(_margin_value, fixed, ridge)
            diverged[live[~ok]] = True
            live, fixed, f_cur = live[ok], fixed[ok], f[live[ok]]
            keep = f_fixed <= f_cur + 1e-12 * (1.0 + np.abs(f_cur))
            factors[live[keep]], f[live[keep]] = fixed[keep], f_fixed[keep]
    f[diverged] = np.nan
    return factors, f, histories, iters


def classify_margin(margin: float, tol: Tolerance = DEFAULT_TOL) -> str:
    if margin >= 0.0:
        return "no_counterexample_found"
    if margin > -NOISE_FACTOR * tol.rel:
        return "numerical_noise"
    return "candidate"


def minimize_margin(cfg: SearchConfig, tol: Tolerance = DEFAULT_TOL) -> SearchResult:
    """Multi-restart descent on the margin; deterministic for a fixed config.

    The restarts run in lockstep (see ``_descend``). At n >= 2 they are cut
    into W = min(``_cpu_count()``, restarts) contiguous shares, each descended
    in lockstep, share 0 here and the others in forked processes (see
    :func:`cyclicpd._fork.run_units`); the shares are joined in restart order.
    Restarts are independent, so the result is the same at every W; n = 1
    runs as one share. Restarts that diverge (LinAlgError, or a non-finite
    final margin) are dropped, and ``iterations_used`` sums the accepted
    steps of the others. The winning family is re-evaluated through the
    checker path with fresh refined inverses before being reported; a
    candidate is classified as a verified counterexample only when that
    margin also lies below the noise band of the tightened tolerance
    ``VERIFY_TOL``.
    """
    starts = _initial_factors(cfg)
    workers = 1 if cfg.n == 1 else min(_cpu_count(), cfg.restarts)
    shares = np.array_split(starts, workers)
    parts = run_units([partial(_descend, cfg, share) for share in shares],
                      [len(share) for share in shares], workers)
    factors, margins, histories, iters = zip(*parts)
    factors, margins, iters = (np.concatenate(x) for x in (factors, margins, iters))
    histories = [h for share in histories for h in share]
    survivors = [r for r in range(cfg.restarts) if np.isfinite(margins[r])]
    if not survivors:
        raise RuntimeError("all restarts diverged")
    # deterministic merge: lowest margin, ties broken by lowest restart index
    r = min(survivors, key=lambda s: (margins[s], s))
    f, factors, history = float(margins[r]), factors[r], histories[r]
    total_iters = sum(int(iters[s]) for s in survivors)
    mats = _mats_from_factors(factors, cfg.ridge)
    mats = (mats + np.swapaxes(mats, -1, -2)) / 2.0
    mats.setflags(write=False)
    family = CyclicFamily(mats)
    recomputed = cyclic_sum_trace(family, refine=True) - cfg.p * cfg.n / 2.0
    if abs(recomputed - f) > 1e-9 * (1.0 + abs(f)):
        raise RuntimeError(
            f"soundness gate: optimizer margin {f!r} disagrees with "
            f"re-verified margin {recomputed!r}"
        )
    classification = classify_margin(recomputed, tol)
    if classification == "candidate":
        verified = recomputed < -NOISE_FACTOR * VERIFY_TOL.rel
        classification = "verified_counterexample" if verified else "numerical_noise"
    return SearchResult(
        best_family=family,
        best_margin=recomputed,
        iterations_used=total_iters,
        margin_history=history,
        classification=classification,
        restart_index=r,
    )


def probe_conjecture(
    p: int, cfg: SearchConfig, dims=(1, 2, 3), tol: Tolerance = DEFAULT_TOL
) -> dict:
    """Sweep n over ``dims`` at p in {12, 23}; returns {n: SearchResult}.

    A verified negative margin at any n is a conjecture-relevant event and is
    carried in the result's classification, never suppressed.
    """
    if p not in (12, 23):
        raise ValueError("the open cases are p = 12 and p = 23")
    results = {}
    for n in dims:
        results[n] = minimize_margin(replace(cfg, p=p, n=n), tol)
    return results
