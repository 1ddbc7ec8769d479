"""Numerical checkers for the cyclic-sum and trace inequalities.

Each checker ``batch_<name>`` evaluates one inequality (or exact identity) on
T trials of concrete positive definite operands at once and returns a
:class:`CheckBatch` of per-trial arrays: the two sides, the signed margin in
the inequality's direction, and a verdict under one relative slack ``rel``
(default ``pdcore.REL_TOL`` = 1e-9): a margin holds when it is at least
-rel * (1 + a scale). The scale is the operands' norms for eigineq1, nesbitt,
nesbitt_k, s4_decomposition, upper_bound_2ab and wz_certificate; the
magnitudes compared for trace_product, weighted_cs, cs_trace, shapiro_trace,
bidirectional and square_cycle; derived matrices' norms for harmonic_loewner,
block_certificate, product_sum_eigs and bidirectional_eig4; shapiro_extension
reads no ``rel``. ``report(t)`` gives trial t as a :class:`CheckReport`; a
one-trial stack (1, ...) evaluates one set of operands, and a trial's results
do not depend on the other trials of its stack. The two-operand trace and
eigenvalue bounds take their operands as plain (T, n, n) arrays. Every other
checker takes one family stack (T, p, n, n): the Nesbitt and damped
three-variable bounds a cycle (A, B, C) of p = 3, the four-variable bounds a
cycle (A, B, C, D) of p = 4, and the rest a family of any p. The Nesbitt
bound is checked as the k = 3 case of the k-variable bound, by one kernel. A
family is a plain array or a :class:`StackContext`, which computes the
intermediates that several checkers of one stack need (A_i^{-1}, sum A_i,
sum A_i^{-1}, (sum A_i)^{-1}, the member-norm sum sum_i ||A_i||_F, the cyclic
trace sum) once, with the same calls, so both give the same bits; a row view
of a context (``StackContext.rows``) takes its parent's, sliced.
The cyclic trace sum has one kernel, ``cyclic_traces`` (verify, ``eval``, the
search's descent), and every inverse one rule, ``_inv`` (with the kernel's solve
for terms its guard refuses); the search re-checks its winner apart from both.
Outside the checkers too, one family is one (p, n, n) stack.
Checkers whose proofs go through an auxiliary construction (block matrices,
W/Z factor pairs) rebuild it and gate on its identities.

The module also embeds the published 2x2 quadruple whose cyclic-sum matrix has
the complex eigenvalue pair 2.6393 +/- 0.1871i, showing that the eigenvalue
form of the four-variable cyclic inequality fails.
"""
from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import FixtureMismatch, SingularDenominator
from .pdcore import (
    PD_FLOOR,
    REL_TOL,
    CyclicFamily,
    _ct,
    _fro,
    _pd_floor,
    eig_general_stack,
    herm_powers,
    pd_product_eigvals,
    validate_family,
)

# The checkers in verify's order: ``batch_<name>`` -> (operand word, suite).
# A letter of the word is that drawn operand (PD a, b, c, d; square x, y) as a
# plain (T, n, n) array, "abc" and "abcd" their cycle, FAMILY a family of any
# p. Only the trace bound is conditional: a theorem at some (n, p) only.
FAMILY = "family"
CHECKS = {
    "trace_product": ("a b", "unconditional"),
    "weighted_cs": ("x y a", "unconditional"),
    "cs_trace": ("x y", "unconditional"),
    "eigineq1": ("a b", "unconditional"),
    "nesbitt": ("abc", "unconditional"),
    "upper_bound_2ab": ("abc", "unconditional"),
    "wz_certificate": ("abc", "unconditional"),
    "s4_decomposition": ("abcd", "unconditional"),
    "bidirectional_eig4": ("abcd", "unconditional"),
    "harmonic_loewner": (FAMILY, "unconditional"),
    "block_certificate": (FAMILY, "unconditional"),
    "product_sum_eigs": (FAMILY, "unconditional"),
    "nesbitt_k": (FAMILY, "unconditional"),
    "shapiro_extension": (FAMILY, "unconditional"),
    "bidirectional": (FAMILY, "unconditional"),
    "square_cycle": (FAMILY, "unconditional"),
    "shapiro_trace": (FAMILY, "conditional"),
}

# The identities suite's records in order: each reads ``check``'s batch's
# ``detail["identity_residual"]`` and allows ``allowed(batch, ops)`` per trial,
# ``ops`` being the suite's contexts by operand word ("abc", "abcd", FAMILY).
# A ``per_p`` record is kept per p, the others once per (n, field).
Identity = namedtuple("Identity", "record check allowed per_p", defaults=(False,))
IDENTITY_CHECKS = (
    Identity("s4_identity", "s4_decomposition", lambda batch, ops: 1e-10 * (1.0 + ops["abcd"].fro_sum)),
    # identities of A, B, C alone, scaled by D's norm too, which loosens them
    # for nothing; ROADMAP item 2 gives each identity one rule
    Identity("two_ab_identity", "upper_bound_2ab", lambda batch, ops: 1e-10 * (1.0 + ops["abcd"].fro_sum)),
    Identity("wz_identities", "wz_certificate", lambda batch, ops: 1e-10 * (1.0 + ops["abcd"].fro_sum) ** 2),
    Identity("square_cycle_identities", "square_cycle", lambda batch, ops: 1e-10 * (1.0 + ops[FAMILY].fro_sum)),
    Identity("extension_identity", "shapiro_extension",  # the checker's own gate
             lambda batch, ops: 1e-10 * (1.0 + abs(batch.detail["base"]) + batch.n), per_p=True),
)

# p for which the scalar cyclic-sum inequality S_p >= p/2 is a theorem, and
# the open cases: the largest even and odd such p, where it is not known
# whether the trace bound holds at n >= 2.
SCALAR_VALID_P = frozenset(range(3, 13)) | frozenset(range(13, 24, 2))
OPEN_P = (12, 23)


def theorem_covers(n: int, p: int) -> bool:
    """Whether a theorem proves the trace bound Tr-sum >= p*n/2 at (n, p): the
    Nesbitt and four-variable theorems for p in {3, 4}, and the scalar cyclic
    inequality at n = 1."""
    return p in (3, 4) or (n == 1 and p in SCALAR_VALID_P)


# Published data for the four-variable eigenvalue counterexample.
FIXTURE_ENTRIES = {
    "A": [[5.0, 6.0], [6.0, 7.5]],
    "B": [[2.0, 1.0], [1.0, 2.0]],
    "C": [[6.0, 4.0], [4.0, 3.0]],
    "D": [[3.0, 2.0], [2.0, 5.0]],
}
FIXTURE_EIGS = (2.6393 - 0.1871j, 2.6393 + 0.1871j)
FIXTURE_TRACE = 5.2786
FIXTURE_ATOL = 1e-3


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one inequality check."""

    check_name: str
    n: int
    p: int
    lhs: object
    rhs: float
    margin: float
    holds: bool
    rel: float
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "check": self.check_name,
            "n": self.n,
            "p": self.p,
            "holds": bool(self.holds),
            "margin": float(self.margin),
            "lhs": _jsonable(self.lhs),
            "rhs": float(self.rhs),
            "detail": {k: _jsonable(v) for k, v in self.detail.items()},
            # "abs": the positivity floor of the gate every reported family passed
            "tol": {"rel": self.rel, "abs": PD_FLOOR},
        }


@dataclass(frozen=True)
class CheckBatch:
    """Outcome of one check over T stacked trials.

    ``lhs``, ``margin`` and ``holds`` are arrays with one entry per trial;
    ``rhs`` and each ``detail`` value are per-trial arrays (T, ...) or a
    value shared by every trial.
    """

    check_name: str
    n: int
    p: int
    lhs: np.ndarray
    rhs: object
    margin: np.ndarray
    holds: np.ndarray
    rel: float
    detail: dict = field(default_factory=dict)

    def report(self, t: int = 0) -> CheckReport:
        """The :class:`CheckReport` of trial ``t``."""
        return CheckReport(
            self.check_name, self.n, self.p, _trial(self.lhs, t), _trial(self.rhs, t),
            _trial(self.margin, t), _trial(self.holds, t), self.rel,
            {k: _trial(v, t) for k, v in self.detail.items()},
        )


def _trial(v, t: int):
    v = np.asarray(v)
    if v.ndim:
        v = v[t]
    return v.item() if v.ndim == 0 else v


def _jsonable(v):
    """A report value for JSON: an array flat, its real entries as floats and
    its complex ones as [re, im] pairs; a Python scalar (``_trial``'s
    ``.item()``, or a float or bool of ``reproduce_counterexample``) as it is."""
    if not isinstance(v, np.ndarray):
        return v
    if np.iscomplexobj(v):
        return [[z.real, z.imag] for z in v.ravel()]
    return [float(x) for x in v.ravel()]


# Stacked helpers: every array argument is a stack (..., n, n) whose matrices
# are handled one by one; a family stack is (..., p, n, n).

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
# blocks entries first, (u, ...), so each entry is one contiguous array.
_UNIQUE = {2: np.array([0, 1, 3]), 3: np.array([0, 1, 2, 4, 5, 8])}
_FULL = {2: np.array([0, 1, 1, 2]), 3: np.array([0, 1, 2, 1, 3, 4, 2, 4, 5])}
# 3x3 cofactors from u = (s00, s01, s02, s11, s12, s22): row k of _COF3 picks
# the factors x_k, and cof = x_0 * x_1 - x_2 * x_3, e.g. cof_00 = s11 * s22 - s12 * s12
_COF3 = np.array([
    [3, 4, 1, 0, 1, 0],
    [5, 2, 4, 5, 2, 3],
    [4, 1, 3, 2, 0, 1],
    [4, 5, 2, 2, 4, 1],
]).ravel()


def _cofactors(s):
    """Cofactors, determinant and guard of symmetric 2x2 or 3x3 blocks.

    ``s`` holds the blocks' unique entries first, (3, ...) or (6, ...), in
    ``_UNIQUE`` order; returns the cofactors in the same layout, the
    determinant (the first row times its cofactors, added in order), and
    whether the closed form may be used: det finite, positive and at least
    MIN_DET_RATIO times the product of the diagonal.
    """
    if len(s) == 3:
        n = 2
        cof = s[::-1].copy()  # (s11, -s01, s00)
        cof[1] = -cof[1]
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


def _inv(a: np.ndarray) -> np.ndarray:
    """A^{-1} of each matrix of a stack (..., n, n), by the program's one
    inversion rule: a real 1x1 divides; a real 2x2 or 3x3, symmetric as every
    matrix the program inverts is, takes cof / det from its unique entries
    when the guard of ``_cofactors`` admits it; every other matrix (refused,
    complex, n >= 4) takes LAPACK's inv, symmetrized, with its value, nan or
    LinAlgError. Each result is exactly Hermitian, and each matrix's inverse
    does not depend on its stack."""
    n, real = a.shape[-1], not np.iscomplexobj(a)
    if n == 1 and real:
        return 1.0 / a
    if n not in _UNIQUE or not real:
        return _lapack_inv(a)
    flat = a.reshape(-1, n * n)
    # blocks the guard refuses are inverted again below; nothing here may warn
    with np.errstate(all="ignore"):
        cof, det, ok = _cofactors(flat.T.take(_UNIQUE[n], axis=0))
    blocks = a.reshape(-1, n, n)
    return _inv_from_cofactors(cof, det, ok, lambda refused: blocks[refused]).reshape(a.shape)


def _lapack_inv(a: np.ndarray) -> np.ndarray:
    x = np.linalg.inv(a)
    return (x + _ct(x)) / 2.0


def _inv_from_cofactors(cof, det, ok, blocks) -> np.ndarray:
    """``_inv`` of blocks from their ``_cofactors``, over axes K: cof / det,
    or LAPACK for each block the guard refused, taken from
    ``blocks(refused)`` by a mask over K reversed, the result's axes."""
    n = 2 if len(cof) == 3 else 3
    x = np.empty(det.shape[::-1] + (n * n,))
    with np.errstate(all="ignore"):
        # written through the (n*n, *K) view of x, which stays contiguous
        np.divide(cof.take(_FULL[n], axis=0), det, out=x.T)
    x = x.reshape(det.shape[::-1] + (n, n))
    if not ok.all():
        refused = ~ok.T
        x[refused] = _lapack_inv(blocks(refused))
    return x


def _rtr(a: np.ndarray) -> np.ndarray:
    return a.trace(axis1=-2, axis2=-1).real


def _psum(mats: np.ndarray) -> np.ndarray:
    """Sum over the member axis of (..., p, n, n), added in order (as _sum_over_p adds)."""
    return mats.cumsum(axis=-3)[..., -1, :, :] + 0.0


def _hstack(blocks: np.ndarray) -> np.ndarray:
    """The block row [B_1 ... B_k] of each stack (..., k, n, m), as (..., n, k*m)."""
    moved = blocks.swapaxes(-3, -2)
    return moved.reshape(moved.shape[:-2] + (-1,))


def _abs2(z: np.ndarray) -> np.ndarray:
    """|z|^2 of each entry, rounded as the scalar abs(complex(z)) ** 2 is: by
    hypot and pow (np.abs and the array square may round differently)."""
    return np.float_power(np.hypot(z.real, z.imag), 2)


# The intermediates a StackContext keeps, by name: each from the context.
_INTERMEDIATES = {
    "inv": lambda ctx: _inv(ctx.mats),  # A_i^{-1} of each matrix
    "total": lambda ctx: _psum(ctx.mats),  # sum_i A_i over the member axis
    "inv_total": lambda ctx: _psum(ctx.inv),  # sum_i A_i^{-1}
    "total_inv": lambda ctx: _inv(ctx.total),  # (sum_i A_i)^{-1}
    "fro_sum": lambda ctx: _sum_over_p(_fro(ctx.mats)),  # sum_i ||A_i||_F, added in order
    "traces": lambda ctx: cyclic_traces(ctx.mats),  # Tr[ sum_i A_i S_i^{-1} ] of each family; p >= 3
    "two_ab": lambda ctx: _two_ab_sums(ctx.mats),  # M and N of the cycle (A, B, C), as (..., 2, n, n)
}


class StackContext:
    """One family stack (T, p, n, n) and the intermediates that several
    checkers of it share (``_INTERMEDIATES``: ``inv``, ``total``,
    ``inv_total``, ``total_inv``, ``fro_sum``, ``traces``, ``two_ab``). Each
    is computed on first use by the call a checker makes on the raw array,
    then kept for the other checkers of the stack; they read the cached
    arrays and never write them. ``fro_sum``, sum_i ||A_i||_F added in order,
    is the one source of every slack and tolerance built from the members'
    norms. A row view (:meth:`rows`), whose ``parent`` is the (context, rows)
    it views, shares them with that context.
    """

    def __init__(self, mats: np.ndarray, parent=None):
        self.mats = mats
        self._parent = parent

    def rows(self, lo: int, hi: int) -> StackContext:
        """The context of trials lo:hi. Its intermediates are this context's,
        sliced, so each is computed once, on every row; a trial's do not
        depend on the other rows. All of the rows are this context itself."""
        if (lo, hi) == (0, len(self.mats)):
            return self
        return StackContext(self.mats[lo:hi], (self, slice(lo, hi)))

    def __getattr__(self, name):
        # called only for a name not set yet: an intermediate is computed (in
        # a row view, sliced from the parent's) and set
        make = _INTERMEDIATES.get(name)
        if make is None:
            raise AttributeError(name)
        if self._parent is None:
            value = make(self)
        else:
            parent, rows = self._parent
            value = getattr(parent, name)[rows]
        self.__dict__[name] = value
        return value


def _context(stack) -> StackContext:
    """``stack`` as a context: a plain array is wrapped, a context passes through."""
    return stack if isinstance(stack, StackContext) else StackContext(stack)


def _cycle(stack, p: int) -> StackContext:
    """``stack`` as the context of a cycle of exactly p members (..., p, n, n)."""
    ctx = _context(stack)
    if ctx.mats.ndim < 3 or ctx.mats.shape[-3] != p:
        raise ValueError(f"expected a cycle of {p} members (..., {p}, n, n), got shape {ctx.mats.shape}")
    return ctx


def _slack(rel: float, *norms):
    """Allowed negative margin for operands of the given norms (floats or per-trial arrays)."""
    return rel * (1.0 + sum(norms))


# ---------------------------------------------------------------------------
# Two-operand trace bounds, on plain (T, n, n) arrays
# ---------------------------------------------------------------------------

def batch_trace_product(am, bm, rel: float = REL_TOL) -> CheckBatch:
    """0 <= Tr(AB) <= Tr(A) Tr(B) for positive semidefinite A, B."""
    tr_ab = _rtr(am @ bm)
    tr_a, tr_b = _rtr(am), _rtr(bm)
    upper = tr_a * tr_b
    margin = np.minimum(tr_ab, upper - tr_ab)
    slack = rel * (1.0 + abs(tr_ab) + abs(upper))
    return CheckBatch(
        "trace_product", am.shape[-1], 0, tr_ab, upper, margin, margin >= -slack, rel,
        {"tr_a": tr_a, "tr_b": tr_b, "tr_ab": tr_ab},
    )


def batch_weighted_cs(x, y, am, rel: float = REL_TOL) -> CheckBatch:
    """|Tr(X*Y)|^2 <= Tr(X*AX) Tr(Y*A^{-1}Y) for a positive definite weight A."""
    lhs = _abs2(np.trace(_ct(x) @ y, axis1=-2, axis2=-1))
    t_x = _rtr(_ct(x) @ am @ x)
    t_y = _rtr(_ct(y) @ _inv(am) @ y)
    rhs = t_x * t_y
    margin = rhs - lhs
    slack = rel * (1.0 + lhs + abs(rhs))
    return CheckBatch(
        "weighted_cs", am.shape[-1], 0, lhs, rhs, margin, margin >= -slack, rel,
        {"tr_xax": t_x, "tr_yainvy": t_y},
    )


def batch_cs_trace(a, b, rel: float = REL_TOL) -> CheckBatch:
    """|Tr(AB*)|^2 <= Tr(AA*) Tr(BB*) (Cauchy-Schwarz in the trace inner product)."""
    lhs = _abs2(np.trace(a @ _ct(b), axis1=-2, axis2=-1))
    rhs = _rtr(a @ _ct(a)) * _rtr(b @ _ct(b))
    margin = rhs - lhs
    slack = rel * (1.0 + lhs + abs(rhs))
    return CheckBatch("cs_trace", a.shape[-2], 0, lhs, rhs, margin, margin >= -slack, rel)


# ---------------------------------------------------------------------------
# Eigenvalue bounds for products of PD matrices
# ---------------------------------------------------------------------------

def batch_eigineq1(am, bm, rel: float = REL_TOL) -> CheckBatch:
    """Every eigenvalue of (A-B)(B^{-1}-A^{-1}) is >= 0.

    Evaluated through the identity with X = A B^{-1}: the spectrum equals that
    of X + X^{-1} - 2I: w + 1/w - 2 over the eigenvalues w of the Hermitian
    H = B^{-1/2} A B^{-1/2}. The margin comes from the w nearest 1, with a
    round-off of about eps * ||H||; the ``eigs`` from w << 1 carry a relative
    error of about eps * cond(H), and no verdict reads them.
    """
    (r,) = herm_powers(bm, -0.5)
    h = r @ am @ r
    w = np.linalg.eigvalsh((h + _ct(h)) / 2.0)
    vals = np.sort(w + 1.0 / w - 2.0, axis=-1)
    margin = vals[..., 0]
    slack = _slack(rel, _fro(am), _fro(bm))
    return CheckBatch(
        "eigineq1", am.shape[-1], 0, margin, 0.0, margin, margin >= -slack, rel, {"eigs": vals},
    )


def batch_harmonic_loewner(mats, rel: float = REL_TOL) -> CheckBatch:
    """Sum of inverses dominates p^2 * (sum)^{-1} in the Loewner order."""
    ctx = _context(mats)
    mats = ctx.mats
    p = mats.shape[-3]
    lhs = ctx.inv_total
    rhs = p**2 * ctx.total_inv
    # exactly Hermitian, as every _inv result and so their sums are
    margin = np.linalg.eigvalsh(lhs - rhs)[..., 0]
    slack = _slack(rel, _fro(lhs), _fro(rhs))
    return CheckBatch(
        "harmonic_loewner", mats.shape[-1], p, _rtr(lhs), _rtr(rhs), margin, margin >= -slack, rel,
    )


def _block_stack(mats: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """Blocks M_i = [[A_i^{-1}, I], [I, A_i]] of (..., p, n, n) as (..., p, 2n, 2n),
    from the stack and its inverses."""
    n = mats.shape[-1]
    blocks = np.zeros(mats.shape[:-2] + (2 * n, 2 * n), dtype=mats.dtype)
    blocks[..., :n, :n] = inv
    blocks[..., :n, n:] = np.eye(n)
    blocks[..., n:, :n] = np.eye(n)
    blocks[..., n:, n:] = mats
    return blocks


def schur_complement(m: np.ndarray, n: int, d_inv: np.ndarray) -> np.ndarray:
    """Schur complement of the trailing n x n block of (a stack of) 2n x 2n
    matrices, given that block's inverse ``d_inv``."""
    a, b, c = m[..., :n, :n], m[..., :n, n:], m[..., n:, :n]
    return a - b @ d_inv @ c


def batch_block_certificate(mats, rel: float = REL_TOL) -> CheckBatch:
    """The proof behind the harmonic Loewner bound: each block
    M_i = [[A_i^{-1}, I], [I, A_i]] is PSD, so is their sum M, and the Schur
    complement of M with respect to its (2,2) block equals
    sum(A_i^{-1}) - p^2 (sum A_i)^{-1}. Checks PSD-ness of every M_i and of M,
    plus agreement of the Schur-complement path with the direct Loewner margin."""
    ctx = _context(mats)
    mats = ctx.mats
    n, p = mats.shape[-1], mats.shape[-3]
    blocks = _block_stack(mats, ctx.inv)
    # exactly Hermitian, as the members, their _inv results and so the sums are
    block_min = np.linalg.eigvalsh(blocks)[..., 0].min(axis=-1)
    m = _psum(blocks)
    m_min = np.linalg.eigvalsh(m)[..., 0]
    # the trailing block of M is sum A_i, added as ctx.total adds it
    sc = schur_complement(m, n, ctx.total_inv)
    direct = ctx.inv_total - p**2 * ctx.total_inv
    sc_gap = _fro(sc - direct)
    scale = _fro(m)
    slack = _slack(rel, scale)
    margin = np.minimum(block_min, m_min)
    holds = (margin >= -slack) & (sc_gap <= 1e-8 * (1.0 + scale))
    return CheckBatch(
        "block_certificate", n, p, margin, 0.0, margin, holds, rel,
        {"block_min_eig": block_min, "sum_min_eig": m_min, "schur_gap": sc_gap},
    )


def batch_product_sum_eigs(mats, rel: float = REL_TOL) -> CheckBatch:
    """Eigenvalues of (sum A_i)(sum A_i^{-1}) are all >= p^2."""
    ctx = _context(mats)
    mats = ctx.mats
    p = mats.shape[-3]
    # the sums are exactly Hermitian, as the members and their _inv results
    # are, and PD by closure, so only the positivity floor applies
    s, hinv = ctx.total, ctx.inv_total
    _pd_floor(s)
    _pd_floor(hinv)
    vals = pd_product_eigvals(hinv, s)
    rhs = float(p**2)
    margin = vals.min(axis=-1) - rhs
    slack = _slack(rel, _fro(s), _fro(hinv))
    return CheckBatch(
        "product_sum_eigs", mats.shape[-1], p, vals.min(axis=-1), rhs, margin,
        margin >= -slack, rel, {"eigs": vals},
    )


def _nesbitt_k(name: str, ctx: StackContext, rel: float) -> CheckBatch:
    """The bound of :func:`batch_nesbitt_k` on a family context, as the check ``name``."""
    mats = ctx.mats
    k = mats.shape[-3]
    if k < 2:
        raise SingularDenominator("k must be >= 2: S - A_1 vanishes for a single member")
    s = ctx.total
    inv_sum = _psum(_inv(s[..., None, :, :] - mats))
    vals = pd_product_eigvals(s, inv_sum) - k
    rhs = k / (k - 1)
    margin = vals.min(axis=-1) - rhs
    slack = _slack(rel, ctx.fro_sum)
    return CheckBatch(
        name, mats.shape[-1], k, vals.min(axis=-1), rhs, margin, margin >= -slack, rel,
        {"eigs": vals},
    )


def batch_nesbitt(abc, rel: float = REL_TOL) -> CheckBatch:
    """Three-variable cyclic bound on the cycle (A, B, C): every eigenvalue of
    A(B+C)^{-1} + B(C+A)^{-1} + C(A+B)^{-1} is >= 3/2, the k = 3 case of
    :func:`batch_nesbitt_k` (B + C = S - A)."""
    return _nesbitt_k("nesbitt", _cycle(abc, 3), rel)


def batch_nesbitt_k(mats, rel: float = REL_TOL) -> CheckBatch:
    """k-variable generalization: eigenvalues of sum_i A_i (S - A_i)^{-1}
    are >= k/(k-1), with S the sum of the family; they are those of
    S (sum_i (S - A_i)^{-1}) - kI, which reduces to a Hermitian problem."""
    return _nesbitt_k("nesbitt_k", _context(mats), rel)


# ---------------------------------------------------------------------------
# The cyclic trace functional and its inequalities
# ---------------------------------------------------------------------------
#
# Every S_i = A_{i+1} + A_{i+2} is inverted by the one rule of ``_inv``, whose
# guard admits an S_i with det finite, positive and at least MIN_DET_RATIO *
# prod(diag S_i) (the closed form's error grows like eps / that ratio).
# ``cyclic_inverses`` is ``_inv`` of the denominators; ``cyclic_traces`` (every
# F_p the program takes) applies the rule in trace form, with one LAPACK solve
# for each term whose S_i the guard refuses, that term alone. Sums add in
# order, so a family's result does not depend on its stack, and each path
# rounds exactly as its looped oracle (tests/looped_oracle.py).

@lru_cache(maxsize=128)
def _shift_index(p: int, k: int) -> np.ndarray:
    idx = (np.arange(p) + k) % p
    idx.flags.writeable = False
    return idx


def cyclic_shift(mats, k: int):
    """A_{i+k} at member i of stacked families (..., p, n, n), cyclic in p.

    The same array as np.roll(mats, -k, axis=-3), in the same C order (a
    matmul on a differently strided copy can round differently), gathered by
    one cached index.
    """
    return mats.take(_shift_index(mats.shape[-3], k), axis=-3)


def cyclic_denominators(mats):
    """S_i = A_{i+1} + A_{i+2} over stacked families (..., p, n, n), cyclic in p."""
    return cyclic_shift(mats, 1) + cyclic_shift(mats, 2)


def _sum_over_p(terms):
    """Sum of terms[..., i] over the last axis, added in order i = 0..p-1.

    np.sum adds pairwise, so it would round differently from one family's sum;
    a cumulative sum adds in order. The closing + 0.0 makes an all -0.0 sum
    +0.0, as a sum started from 0.0 is.
    """
    return terms.cumsum(axis=-1)[..., -1] + 0.0


# Weight of each unique entry in a trace sum_jk C_jk A_jk of two symmetric
# blocks: an off-diagonal entry counts twice.
_WEIGHT = {2: np.array([1.0, 2.0, 1.0]).reshape(3, 1, 1),
           3: np.array([1.0, 2.0, 2.0, 1.0, 2.0, 1.0]).reshape(6, 1, 1)}


@lru_cache(maxsize=128)
def _gather_index(p: int, n: int) -> np.ndarray:
    """Flat positions in a (p, n, n) family of the unique entries of A_{i+k},
    k = 0, 1, 2, as (3, u, p)."""
    idx = np.stack([_shift_index(p, k) * (n * n) + _UNIQUE[n][:, None] for k in range(3)])
    idx.flags.writeable = False
    return idx


def _require_cycle(p: int):
    if p < 3:
        raise ValueError("the cyclic sum needs p >= 3")


def cyclic_traces(mats):
    """Tr[ sum_i A_i S_i^{-1} ] of each stacked family (..., p, n, n); p >= 3.

    Each term Tr(S_i^{-1} A_i) follows ``_inv``'s rule: a real 1x1 divides;
    a real 2x2 or 3x3 is formed from S_i's cofactors, gathered with A_i's
    unique entries by one cached index, unless the guard refuses S_i, when
    that term alone takes one LAPACK solve; complex and n >= 4 terms take one
    batched solve. On the shipped BLAS a 1x1 solve rounds as the division
    (tests/test_inequalities.py checks it).
    """
    return _cyclic_traces(mats)[0]


def _cyclic_traces(mats):
    """(``cyclic_traces(mats)``, kept) for ``_kept_inverses``: kept is the
    (cof, det, ok) of each S_i, (p, B), on the closed-form path, else the S_i."""
    _require_cycle(mats.shape[-3])
    n, real = mats.shape[-1], not np.iscomplexobj(mats)
    if n not in _UNIQUE or not real:
        dens = cyclic_denominators(mats)
        terms = mats / dens if n == 1 and real else np.linalg.solve(dens, mats)
        return _sum_over_p(_rtr(terms)), dens
    flat = mats.reshape((-1,) + mats.shape[-3:])
    b, p = flat.shape[:2]
    x = flat.reshape(b, p * n * n).T.take(_gather_index(p, n), axis=0)
    a, s = x[0], x[1] + x[2]  # A_i and S_i, entries first: (u, p, B)
    # terms the guard refuses are evaluated again below; nothing here may warn
    with np.errstate(all="ignore"):
        cof, det, ok = _cofactors(s)
        # Tr(S_i^{-1} A_i) = sum_jk cof_jk (A_i)_jk / det, entries added in order
        terms = cof * a * _WEIGHT[n]
        tr = terms[0] + terms[1]
        for t in terms[2:]:
            tr += t
        tr /= det
    if not ok.all():
        i, t = np.nonzero(~ok)  # member i of family t
        dens = flat[t, (i + 1) % p] + flat[t, (i + 2) % p]
        tr[i, t] = np.trace(np.linalg.solve(dens, flat[t, i]), axis1=-2, axis2=-1)
    return _sum_over_p(tr.T).reshape(mats.shape[:-3])[()], (cof, det, ok)


def _kept_inverses(mats, kept, rows):
    """``cyclic_inverses(mats[rows])`` of families (B, p, n, n), bit for bit,
    from kept = ``_cyclic_traces(mats)[1]``: S_i is formed again only if
    the closed form's guard refused a block."""
    if not isinstance(kept, tuple):
        return _inv(kept[rows])
    cof, det, ok = (k[..., rows] for k in kept)
    return _inv_from_cofactors(cof, det, ok, lambda refused: cyclic_denominators(mats[rows])[refused])


def cyclic_inverses(mats):
    """S_i^{-1} over stacked families (..., p, n, n), by the one rule ``_inv``."""
    return _inv(cyclic_denominators(mats))


def cyclic_sum_trace(f: CyclicFamily) -> float:
    """Tr[ sum_i A_i (A_{i+1} + A_{i+2})^{-1} ] with cyclic indices (p >= 3).
    No command calls it; it is kept for the benchmark's reader until ROADMAP item 1."""
    return float(cyclic_traces(f.mats))


def batch_shapiro_trace(mats, rel: float = REL_TOL) -> CheckBatch:
    """Conditional cyclic trace bound: Tr-sum >= p*n/2.

    A failed verdict is a counterexample candidate, not necessarily a bug,
    unless ``theorem_covers`` its (n, p).
    """
    ctx = _context(mats)
    n, p = ctx.mats.shape[-1], ctx.mats.shape[-3]
    val = ctx.traces
    rhs = p * n / 2.0
    margin = val - rhs
    slack = rel * (1.0 + abs(val) + rhs)
    return CheckBatch("shapiro_trace", n, p, val, rhs, margin, margin >= -slack, rel)


def batch_s4_decomposition(abcd, rel: float = REL_TOL) -> CheckBatch:
    """Four-variable trace bound Tr(M) >= 2n via the M/N/P decomposition.

    M, N and P are sum_i A_{i+k} (A_{i+1} + A_{i+2})^{-1} over the cycle
    (A, B, C, D) for k = 0, 1, 2. Verifies the exact identity N + P = 4I, the
    intermediate bounds Tr(M+P) >= 4n and Tr(M+N) >= 4n, and the conclusion
    Tr(M) >= 2n.
    """
    ctx = _cycle(abcd, 4)
    mats = ctx.mats
    n = mats.shape[-1]
    inv = cyclic_inverses(mats)
    numerators = np.stack([mats, cyclic_shift(mats, 1), cyclic_shift(mats, 2)], axis=-4)
    sums = _psum(numerators @ inv[..., None, :, :, :])
    m, nn, pp = (sums[..., i, :, :] for i in range(3))
    identity_res = _fro(nn + pp - 4.0 * np.eye(n))
    slack = _slack(rel, ctx.fro_sum)
    tr_m = _rtr(m)
    margins = {
        "m_plus_p": _rtr(m + pp) - 4.0 * n,
        "m_plus_n": _rtr(m + nn) - 4.0 * n,
        "m": tr_m - 2.0 * n,
    }
    holds = identity_res <= 1e-10 * (1.0 + ctx.fro_sum)
    for v in margins.values():
        holds = holds & (v >= -slack)
    return CheckBatch(
        "s4_decomposition", n, 4, tr_m, 2.0 * n, margins["m"], holds, rel,
        {
            "tr_m": tr_m,
            "tr_n": _rtr(nn),
            "tr_p": _rtr(pp),
            "identity_residual": identity_res,
            **{f"margin_{k}": v for k, v in margins.items()},
        },
    )


def batch_shapiro_extension(mats, rel: float = REL_TOL) -> CheckBatch:
    """Exact identity F(A_1..A_p, A_1, A_2) = F(A_1..A_p) + n."""
    ctx = _context(mats)
    mats = ctx.mats
    n, p = mats.shape[-1], mats.shape[-3]
    base = ctx.traces
    ext = cyclic_traces(np.concatenate([mats, mats[..., :2, :, :]], axis=-3))
    expected = base + n
    diff = abs(ext - expected)
    allowed = 1e-10 * (1.0 + abs(base) + n)
    return CheckBatch(
        "shapiro_extension", n, p, ext, expected, -diff, diff <= allowed, rel,
        {"base": base, "extended": ext, "identity_residual": diff},
    )


def batch_bidirectional(mats, rel: float = REL_TOL) -> CheckBatch:
    """Unconditional: forward plus reversed cyclic trace sums are >= p*n."""
    ctx = _context(mats)
    mats = ctx.mats
    n, p = mats.shape[-1], mats.shape[-3]
    fwd, rev = ctx.traces, cyclic_traces(mats[..., ::-1, :, :])
    rhs = float(p * n)
    margin = fwd + rev - rhs
    slack = rel * (1.0 + fwd + rev + rhs)
    return CheckBatch(
        "bidirectional", n, p, fwd + rev, rhs, margin, margin >= -slack, rel,
        {"forward": fwd, "reversed": rev},
    )


def _cyclic_matrix_sum(mats) -> np.ndarray:
    """sum_i A_i S_i^{-1} of each stacked family (..., p, n, n); p >= 3, with
    S_i^{-1} from ``cyclic_inverses``, as the search's gradient takes it."""
    _require_cycle(mats.shape[-3])
    return _psum(mats @ cyclic_inverses(mats))


def _bidirectional_matrix(mats) -> np.ndarray:
    """Forward plus backward cyclic-sum matrix of each stacked family (..., p, n, n)."""
    return _cyclic_matrix_sum(np.stack([mats, mats[..., ::-1, :, :]], axis=-4)).sum(axis=-3)


def batch_bidirectional_eig4(abcd, rel: float = REL_TOL) -> CheckBatch:
    """Four-variable eigenvalue form: the forward plus backward cyclic-sum
    matrix of the cycle (A, B, C, D) has every eigenvalue with real part >= 4."""
    mats = _cycle(abcd, 4).mats
    total = _bidirectional_matrix(mats)
    eigs = eig_general_stack(total)
    min_real = eigs.real.min(axis=-1)
    max_imag = abs(eigs.imag).max(axis=-1)
    margin = min_real - 4.0
    scale = _fro(total)
    slack = _slack(rel, scale)
    return CheckBatch(
        "bidirectional_eig4", mats.shape[-1], 4, min_real, 4.0, margin, margin >= -slack, rel,
        {
            "eigs": eigs,
            "max_imag": max_imag,
            "effectively_real": max_imag <= 1e-8 * np.maximum(scale, 1.0),
        },
    )


def bidirectional_spectrum(mats) -> np.ndarray:
    """Exploratory diagnostic: eigenvalues, sorted by (Re, Im), of the
    forward+backward cyclic-sum matrix of one family (p, n, n), p >= 3. No
    verdict is attached beyond p=4."""
    return eig_general_stack(_bidirectional_matrix(mats))


# ---------------------------------------------------------------------------
# Damped three-variable upper bound and its W/Z certificate
# ---------------------------------------------------------------------------

def _two_ab_sums(mats) -> np.ndarray:
    """M = sum_i A_i (2A_i + A_{i+1})^{-1} and N = sum_i A_{i+1} (2A_i + A_{i+1})^{-1}
    over the cycle (A, B, C) stacked as (..., 3, n, n), as one array (..., 2, n, n)."""
    nxt = cyclic_shift(mats, 1)
    inv = _inv(2 * mats + nxt)
    return _psum(np.stack([mats, nxt], axis=-4) @ inv[..., None, :, :, :])


def batch_upper_bound_2ab(abc, rel: float = REL_TOL) -> CheckBatch:
    """Tr(A(2A+B)^{-1} + B(2B+C)^{-1} + C(2C+A)^{-1}) <= (3n-1)/2 on the cycle (A, B, C).

    Verifies the exact identity 2M + N = 3I and the lower bound Tr(N) >= 1
    that together give the upper bound.
    """
    ctx = _cycle(abc, 3)
    n = ctx.mats.shape[-1]
    m, nn = ctx.two_ab[..., 0, :, :], ctx.two_ab[..., 1, :, :]
    identity_res = _fro(2.0 * m + nn - 3.0 * np.eye(n))
    tr_m, tr_n = _rtr(m), _rtr(nn)
    rhs = (3.0 * n - 1.0) / 2.0
    slack = _slack(rel, ctx.fro_sum)
    margin = np.minimum(rhs - tr_m, tr_n - 1.0)
    holds = (margin >= -slack) & (identity_res <= 1e-10 * (1.0 + ctx.fro_sum))
    return CheckBatch(
        "upper_bound_2ab", n, 3, tr_m, rhs, margin, holds, rel,
        {"tr_m": tr_m, "tr_n": tr_n, "identity_residual": identity_res},
    )


def _wz_blocks(inner) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For the cycle (A, B, C) stacked as (..., 3, n, n): the outer factors
    (B, C, A) and the blocks W_i, Z_i of the W/Z certificate, each stacked
    as (..., 3, n, n)."""
    outer = cyclic_shift(inner, 1)
    (r,) = herm_powers(outer, 0.5)
    core = 2.0 * r @ inner @ r + outer @ outer
    core = (core + _ct(core)) / 2.0
    wi, zi = herm_powers(core, -0.5, 0.5)
    return outer, wi, zi


def batch_wz_certificate(abc, rel: float = REL_TOL) -> CheckBatch:
    """Verify the W/Z certificate identities and the quotient bound
    |Tr(WZ*)|^2 / Tr(ZZ*) >= 1 on the cycle (A, B, C), which gives Tr(N) >= 1
    in the damped upper bound.

    W = (B W_1, C W_2, A W_3) and Z = (Z_1, Z_2, Z_3) with
    W_1 = (2 B^{1/2} A B^{1/2} + B^2)^{-1/2} = Z_1^{-1} and cyclic analogues.
    Key identities: W Z* = A + B + C, Tr(ZZ*) = Tr((A+B+C)^2), Tr(WW*) = Tr(N).
    """
    abc = _cycle(abc, 3)
    am, bm, cm = (abc.mats[..., i, :, :] for i in range(3))
    outer, wi, zi = _wz_blocks(abc.mats)
    w, z = _hstack(outer @ wi), _hstack(zi)
    wz = w @ _ct(z)
    res_wz = _fro(wz - abc.total)
    tr_zz = _rtr(z @ _ct(z))
    tr_zz_expected = _rtr(
        am @ am + bm @ bm + cm @ cm + 2.0 * (am @ bm + bm @ cm + cm @ am)
    )
    tr_ww = _rtr(w @ _ct(w))
    tr_n = _rtr(abc.two_ab[..., 1, :, :])
    quotient = _abs2(np.trace(wz, axis1=-2, axis2=-1)) / tr_zz
    identity_res = np.maximum.reduce([res_wz, abs(tr_zz - tr_zz_expected), abs(tr_ww - tr_n)])
    slack = _slack(rel, abc.fro_sum)
    holds = (identity_res <= 1e-9 * (1.0 + abc.fro_sum**2)) & (quotient >= 1.0 - slack)
    return CheckBatch(
        "wz_certificate", am.shape[-1], 3, quotient, 1.0, quotient - 1.0, holds, rel,
        {
            "identity_residual": identity_res,
            "wz_residual": res_wz,
            "tr_zz": tr_zz,
            "tr_zz_expected": tr_zz_expected,
            "tr_ww": tr_ww,
            "tr_n": tr_n,
        },
    )


def batch_square_cycle(mats, rel: float = REL_TOL) -> CheckBatch:
    """Tr(A_1^2 A_2^{-1} + ... + A_p^2 A_1^{-1}) >= Tr(A_1 + ... + A_p).

    The proof's factor pair W = (A_i A_{i+1}^{-1/2}), Z = (A_{i+1}^{1/2}) is
    rebuilt and its identities W Z* = Z Z* = sum(A_i) are verified in detail.
    """
    ctx = _context(mats)
    mats = ctx.mats
    n, p = mats.shape[-1], mats.shape[-3]
    lhs = _sum_over_p(_rtr(mats @ mats @ cyclic_shift(ctx.inv, 1)))
    rhs = _sum_over_p(_rtr(mats))
    root_inv, root = (cyclic_shift(x, 1) for x in herm_powers(mats, -0.5, 0.5))
    w, z = _hstack(mats @ root_inv), _hstack(root)
    total = ctx.total
    res_wz = _fro(w @ _ct(z) - total)
    res_zz = _fro(z @ _ct(z) - total)
    identity_res = np.maximum(res_wz, res_zz)
    margin = lhs - rhs
    slack = rel * (1.0 + abs(lhs) + abs(rhs))
    holds = (margin >= -slack) & (identity_res <= 1e-9 * (1.0 + ctx.fro_sum))
    return CheckBatch(
        "square_cycle", n, p, lhs, rhs, margin, holds, rel,
        {"identity_residual": identity_res, "wz_residual": res_wz, "zz_residual": res_zz},
    )


# ---------------------------------------------------------------------------
# The published four-variable counterexample
# ---------------------------------------------------------------------------

def counterexample_family() -> np.ndarray:
    """The 2x2 quadruple (A, B, C, D) of the eigenvalue counterexample, validated."""
    return validate_family([FIXTURE_ENTRIES[k] for k in "ABCD"])


def reproduce_counterexample() -> CheckReport:
    """Rebuild M = A(B+C)^{-1} + B(C+D)^{-1} + C(D+A)^{-1} + D(A+B)^{-1} from
    the fixture and confirm its spectrum is the published complex pair
    2.6393 +/- 0.1871i (so the eigenvalue form of the p=4 inequality fails).

    Raises :class:`FixtureMismatch` if the spectrum or trace deviates by more
    than 1e-3 from the published values.
    """
    m = _cyclic_matrix_sum(counterexample_family())
    eigs = eig_general_stack(m)
    expected = np.array(FIXTURE_EIGS)
    dev = float(np.abs(eigs - expected).max())
    trace = float(_rtr(m))
    if dev > FIXTURE_ATOL or abs(trace - FIXTURE_TRACE) > FIXTURE_ATOL:
        raise FixtureMismatch(
            f"computed spectrum {eigs} / trace {trace:.6f} deviates from "
            f"published values beyond {FIXTURE_ATOL:g}"
        )
    max_imag = float(np.abs(eigs.imag).max())
    return CheckReport(
        "counterexample_p4_eigs", 2, 4, eigs, 2.0, -max_imag,
        True, REL_TOL,
        {
            "eigs": eigs,
            "trace": trace,
            "max_imag": max_imag,
            "eigenvalue_form_fails": max_imag > 1e-8 * float(np.linalg.norm(m)),
        },
    )
