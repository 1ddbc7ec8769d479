"""Numerical checkers for the cyclic-sum and trace inequalities.

Each checker evaluates one inequality (or exact identity) on concrete positive
definite operands and returns a :class:`CheckReport` carrying the two sides,
the signed margin in the inequality's direction, and a verdict under the
tolerance policy. A checker ``check_<name>`` is the one-trial view of its
stacked kernel ``batch_<name>``, which evaluates the same inequality on T
trials at once (operands stacked as (T, n, n), families as (T, p, n, n)) and
returns a :class:`CheckBatch` of per-trial arrays. A ``batch_<name>`` takes
each stack either as a plain array or as a :class:`StackContext`, which
computes the intermediates that several checkers of one stack need (A_i^{-1},
sum A_i, sum A_i^{-1}, (sum A_i)^{-1}, the norms, the cyclic trace sum) once,
with the same calls, so both give the same bits. Checkers whose proofs go
through an auxiliary construction (block matrices, W/Z factor pairs) expose
that construction as a :class:`Certificate` so both derivation paths can be
cross-validated.

The module also embeds the published 2x2 quadruple whose cyclic-sum matrix has
the complex eigenvalue pair 2.6393 +/- 0.1871i, showing that the eigenvalue
form of the four-variable cyclic inequality fails.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import DimensionMismatch, FixtureMismatch, SingularDenominator
from .pdcore import (
    _LOOSE_TOL,
    DEFAULT_TOL,
    CyclicFamily,
    PDMatrix,
    Tolerance,
    _ct,
    _fro,
    _pd_floor,
    _refined_inverse,
    _symmetrize,
    eig_general,
    eig_general_stack,
    eig_herm_stack,
    herm_powers,
    make_pd,
    pd_product_similar,
)

# p for which the scalar cyclic-sum inequality S_p >= p/2 is a theorem.
SCALAR_VALID_P = frozenset(range(3, 13)) | frozenset(range(13, 24, 2))

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
    tol: Tolerance
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
            "tol": {"rel": self.tol.rel, "abs": self.tol.abs},
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
    tol: Tolerance
    detail: dict = field(default_factory=dict)

    def report(self, t: int = 0) -> CheckReport:
        """The :class:`CheckReport` of trial ``t``."""
        return CheckReport(
            self.check_name, self.n, self.p, _trial(self.lhs, t), _trial(self.rhs, t),
            _trial(self.margin, t), _trial(self.holds, t), self.tol,
            {k: _trial(v, t) for k, v in self.detail.items()},
        )


def _trial(v, t: int):
    v = np.asarray(v)
    if v.ndim:
        v = v[t]
    return v.item() if v.ndim == 0 else v


@dataclass(frozen=True)
class Certificate:
    """Auxiliary matrices that re-derive a theorem.

    kind "block_psd": blocks M_1..M_p = [[A_i^{-1}, I], [I, A_i]] and their sum M.
    kind "wz_pair": block-row factors W, Z plus the per-block W_i/Z_i pieces.
    """

    kind: str
    blocks: dict


def _jsonable(v):
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, np.ndarray):
        if np.iscomplexobj(v):
            return [[z.real, z.imag] for z in v.ravel()]
        return [float(x) for x in v.ravel()]
    if isinstance(v, (np.floating, np.integer)):
        return float(v)
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


# Stacked helpers: every array argument is a stack (..., n, n) whose matrices
# are handled one by one; a family stack is (..., p, n, n).

def _inv(a: np.ndarray) -> np.ndarray:
    x = np.linalg.inv(a)
    return (x + _ct(x)) / 2.0


def _rtr(a: np.ndarray) -> np.ndarray:
    return np.trace(a, axis1=-2, axis2=-1).real


def _psum(mats: np.ndarray) -> np.ndarray:
    """Sum over the member axis of (..., p, n, n), added in order (as _sum_over_p adds)."""
    return np.cumsum(mats, axis=-3)[..., -1, :, :] + 0.0


def _hstack(blocks: np.ndarray) -> np.ndarray:
    """The block row [B_1 ... B_k] of each stack (..., k, n, m), as (..., n, k*m)."""
    moved = np.moveaxis(blocks, -3, -2)
    return moved.reshape(moved.shape[:-2] + (-1,))


def _pd_product_eigvals(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Eigenvalues of S T for stacks of PD S and T, from the symmetrized similar matrix."""
    h = pd_product_similar(s, t)
    return np.linalg.eigvalsh((h + _ct(h)) / 2.0)


def _abs2(z: np.ndarray) -> np.ndarray:
    """|z|^2 of each entry, rounded as the scalar abs(complex(z)) ** 2 is: by
    hypot and pow (np.abs and the array square may round differently)."""
    return np.float_power(np.hypot(z.real, z.imag), 2)


def _check_dims(*mats: PDMatrix):
    dims = {m.dim for m in mats}
    if len(dims) != 1:
        raise DimensionMismatch(f"mixed dimensions {sorted(dims)}")


def _one(*mats: PDMatrix) -> list[np.ndarray]:
    """PD operands as one-trial stacks (1, n, n)."""
    return [m.mat[None] for m in mats]


def _one_family(f: CyclicFamily) -> np.ndarray:
    """A family as a one-trial stack (1, p, n, n)."""
    return np.stack(f.arrays())[None]


class StackContext:
    """One stack and the intermediates that several checkers of it share.

    ``mats`` is a family stack (..., p, n, n), or one operand (..., n, n) of
    the fixed-arity checkers. Each intermediate is computed on first use by
    the call a checker makes on the raw array, then kept for the other
    checkers of the stack; they read the cached arrays and never write them.
    """

    def __init__(self, mats: np.ndarray):
        self.mats = mats
        self._cycles = {}

    @cached_property
    def inv(self) -> np.ndarray:
        """A_i^{-1} of each matrix."""
        return _inv(self.mats)

    @cached_property
    def total(self) -> np.ndarray:
        """sum_i A_i over the member axis."""
        return _psum(self.mats)

    @cached_property
    def inv_total(self) -> np.ndarray:
        """sum_i A_i^{-1}."""
        return _psum(self.inv)

    @cached_property
    def total_inv(self) -> np.ndarray:
        """(sum_i A_i)^{-1}."""
        return _inv(self.total)

    @cached_property
    def fro(self) -> np.ndarray:
        """Frobenius norm of each matrix."""
        return _fro(self.mats)

    @cached_property
    def traces(self) -> np.ndarray:
        """Tr[ sum_i A_i S_i^{-1} ] of each family; p >= 3."""
        return cyclic_traces(self.mats)

    @cached_property
    def two_ab(self) -> tuple[np.ndarray, np.ndarray]:
        """The sums M and N of :func:`_two_ab_sums` over the cycle (A, B, C)."""
        return _two_ab_sums(self.mats)

    def cycle(self, *rest: "StackContext") -> "StackContext":
        """This operand and the operands ``rest`` stacked as one family
        (..., k, n, n), in a context of its own, built once per ``rest``."""
        if rest not in self._cycles:
            self._cycles[rest] = StackContext(np.stack([self.mats, *(r.mats for r in rest)], axis=-3))
        return self._cycles[rest]


def _context(stack) -> StackContext:
    """``stack`` as a context: a plain array is wrapped, a context passes through."""
    return stack if isinstance(stack, StackContext) else StackContext(stack)


# ---------------------------------------------------------------------------
# Two-operand trace bounds
#
# Each ``check_<name>`` below is the one-trial view of ``batch_<name>``, which
# takes its operands stacked over T trials, (T, n, n) per operand or (T, p, n, n)
# per family, each a plain array or a StackContext, and returns a CheckBatch.
# ---------------------------------------------------------------------------

def batch_trace_product(am, bm, tol: Tolerance = DEFAULT_TOL) -> CheckBatch:
    am, bm = _context(am).mats, _context(bm).mats
    tr_ab = _rtr(am @ bm)
    tr_a, tr_b = _rtr(am), _rtr(bm)
    upper = tr_a * tr_b
    margin = np.minimum(tr_ab, upper - tr_ab)
    slack = tol.rel * (1.0 + abs(tr_ab) + abs(upper))
    return CheckBatch(
        "trace_product", am.shape[-1], 0, tr_ab, upper, margin, margin >= -slack, tol,
        {"tr_a": tr_a, "tr_b": tr_b, "tr_ab": tr_ab},
    )


def check_trace_product(a, b, tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    """0 <= Tr(AB) <= Tr(A) Tr(B) for positive semidefinite A, B."""
    am, bm = a.entries, b.entries
    if am.shape != bm.shape:
        raise DimensionMismatch(f"{am.shape} vs {bm.shape}")
    return batch_trace_product(am[None], bm[None], tol).report()


def batch_weighted_cs(x, y, am, tol: Tolerance = DEFAULT_TOL) -> CheckBatch:
    x, y, a = _context(x).mats, _context(y).mats, _context(am)
    am = a.mats
    lhs = _abs2(np.trace(_ct(x) @ y, axis1=-2, axis2=-1))
    t_x = _rtr(_ct(x) @ am @ x)
    t_y = _rtr(_ct(y) @ a.inv @ y)
    rhs = t_x * t_y
    margin = rhs - lhs
    slack = tol.rel * (1.0 + lhs + abs(rhs))
    return CheckBatch(
        "weighted_cs", am.shape[-1], 0, lhs, rhs, margin, margin >= -slack, tol,
        {"tr_xax": t_x, "tr_yainvy": t_y},
    )


def check_weighted_cs(x, y, a: PDMatrix, tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    """|Tr(X*Y)|^2 <= Tr(X*AX) Tr(Y*A^{-1}Y) for a positive definite weight A."""
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape or x.shape[0] != a.dim:
        raise DimensionMismatch(f"X {x.shape}, Y {y.shape}, A {a.mat.shape}")
    return batch_weighted_cs(x[None], y[None], a.mat[None], tol).report()


def batch_cs_trace(a, b, tol: Tolerance = DEFAULT_TOL) -> CheckBatch:
    a, b = _context(a).mats, _context(b).mats
    lhs = _abs2(np.trace(a @ _ct(b), axis1=-2, axis2=-1))
    rhs = _rtr(a @ _ct(a)) * _rtr(b @ _ct(b))
    margin = rhs - lhs
    slack = tol.rel * (1.0 + lhs + abs(rhs))
    return CheckBatch("cs_trace", a.shape[-2], 0, lhs, rhs, margin, margin >= -slack, tol)


def check_cs_trace(a, b, tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    """|Tr(AB*)|^2 <= Tr(AA*) Tr(BB*) (Cauchy-Schwarz in the trace inner product)."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"{a.shape} vs {b.shape}")
    return batch_cs_trace(a[None], b[None], tol).report()


# ---------------------------------------------------------------------------
# Eigenvalue bounds for products of PD matrices
# ---------------------------------------------------------------------------

def batch_eigineq1(am, bm, tol: Tolerance = DEFAULT_TOL) -> CheckBatch:
    a, b = _context(am), _context(bm)
    am, bm = a.mats, b.mats
    (r,) = herm_powers(bm, -0.5)
    h = r @ am @ r
    h = (h + _ct(h)) / 2.0
    vals = eig_herm_stack(h + _inv(h))[0] - 2.0
    margin = vals.min(axis=-1)
    direct, _ = eig_general_stack((am - bm) @ (b.inv - a.inv))
    slack = tol.slack(a.fro, b.fro)
    return CheckBatch(
        "eigineq1", am.shape[-1], 0, margin, 0.0, margin, margin >= -slack, tol,
        {
            "eigs": vals,
            "direct_min_real": direct.real.min(axis=-1),
            "direct_max_imag": abs(direct.imag).max(axis=-1),
        },
    )


def check_eigineq1(a: PDMatrix, b: PDMatrix, tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    """Every eigenvalue of (A-B)(B^{-1}-A^{-1}) is >= 0.

    Evaluated through the identity with X = A B^{-1}: the spectrum equals that
    of X + X^{-1} - 2I, reduced to the Hermitian form H + H^{-1} - 2I with
    H = B^{-1/2} A B^{-1/2}. A direct nonsymmetric eigendecomposition of
    (A-B)(B^{-1}-A^{-1}) is carried in ``detail`` for cross-validation.
    """
    _check_dims(a, b)
    return batch_eigineq1(*_one(a, b), tol).report()


def batch_harmonic_loewner(mats, tol: Tolerance = DEFAULT_TOL) -> CheckBatch:
    ctx = _context(mats)
    mats = ctx.mats
    p = mats.shape[-3]
    lhs = ctx.inv_total
    rhs = p**2 * ctx.total_inv
    diff = (lhs - rhs + _ct(lhs - rhs)) / 2.0
    margin = np.linalg.eigvalsh(diff)[..., 0]
    slack = tol.slack(_fro(lhs), _fro(rhs))
    return CheckBatch(
        "harmonic_loewner", mats.shape[-1], p, _rtr(lhs), _rtr(rhs), margin,
        margin >= -slack, tol, {"loewner_margin": margin},
    )


def check_harmonic_loewner(f: CyclicFamily, tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    """Sum of inverses dominates p^2 * (sum)^{-1} in the Loewner order."""
    return batch_harmonic_loewner(_one_family(f), tol).report()


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


def build_block_certificate(f: CyclicFamily) -> Certificate:
    """The proof object behind the harmonic Loewner bound.

    Each block M_i = [[A_i^{-1}, I], [I, A_i]] is PSD; their sum M is PSD, and
    the Schur complement of M with respect to its (2,2) block equals
    sum(A_i^{-1}) - p^2 (sum A_i)^{-1}.
    """
    mats = np.stack(f.arrays())
    blocks = _block_stack(mats, _inv(mats))
    out = {f"M_{i}": m for i, m in enumerate(blocks, start=1)}
    out["M"] = _psum(blocks)
    return Certificate("block_psd", out)


def schur_complement(m: np.ndarray, n: int) -> np.ndarray:
    """Schur complement of the trailing n x n block of (a stack of) 2n x 2n matrices."""
    a, b = m[..., :n, :n], m[..., :n, n:]
    c, d = m[..., n:, :n], m[..., n:, n:]
    return a - b @ _inv(d) @ c


def batch_block_certificate(mats, tol: Tolerance = DEFAULT_TOL) -> CheckBatch:
    ctx = _context(mats)
    mats = ctx.mats
    n, p = mats.shape[-1], mats.shape[-3]
    blocks = _block_stack(mats, ctx.inv)
    block_min = np.linalg.eigvalsh((blocks + _ct(blocks)) / 2.0)[..., 0].min(axis=-1)
    m = _psum(blocks)
    m_min = np.linalg.eigvalsh((m + _ct(m)) / 2.0)[..., 0]
    sc = schur_complement(m, n)
    direct = ctx.inv_total - p**2 * ctx.total_inv
    sc_gap = _fro(sc - direct)
    scale = _fro(m)
    slack = tol.slack(scale)
    margin = np.minimum(block_min, m_min)
    holds = (margin >= -slack) & (sc_gap <= 1e-8 * (1.0 + scale))
    return CheckBatch(
        "block_certificate", n, p, margin, 0.0, margin, holds, tol,
        {"block_min_eig": block_min, "sum_min_eig": m_min, "schur_gap": sc_gap},
    )


def check_block_certificate(f: CyclicFamily, tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    """PSD-ness of every block M_i and of M, plus agreement of the
    Schur-complement path with the direct Loewner margin."""
    return batch_block_certificate(_one_family(f), tol).report()


def _loose(tol: Tolerance) -> Tolerance:
    # construction gate for matrices we know are PD by closure properties
    return Tolerance(rel=tol.rel, abs=np.finfo(float).tiny)


def batch_product_sum_eigs(mats, tol: Tolerance = DEFAULT_TOL) -> CheckBatch:
    ctx = _context(mats)
    mats = ctx.mats
    p = mats.shape[-3]
    loose = _loose(tol)
    s = _symmetrize(ctx.total, loose)
    hinv = _symmetrize(ctx.inv_total, loose)
    _pd_floor(s, loose)
    _pd_floor(hinv, loose)
    vals = eig_herm_stack(pd_product_similar(hinv, s))[0]
    rhs = float(p**2)
    margin = vals.min(axis=-1) - rhs
    slack = tol.slack(_fro(s), _fro(hinv))
    return CheckBatch(
        "product_sum_eigs", mats.shape[-1], p, vals.min(axis=-1), rhs, margin,
        margin >= -slack, tol, {"eigs": vals},
    )


def check_product_sum_eigs(f: CyclicFamily, tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    """Eigenvalues of (sum A_i)(sum A_i^{-1}) are all >= p^2."""
    return batch_product_sum_eigs(_one_family(f), tol).report()


def batch_nesbitt(am, bm, cm, tol: Tolerance = DEFAULT_TOL) -> CheckBatch:
    a, b, c = _context(am), _context(bm), _context(cm)
    am, bm, cm = a.mats, b.mats, c.mats
    n = am.shape[-1]
    x, y, z = bm + cm, cm + am, am + bm
    ix, iy, iz = _inv(np.stack([x, y, z]))
    inv_sum = ix + iy + iz
    vals = 0.5 * _pd_product_eigvals(x + y + z, inv_sum) - 3.0
    margin = vals.min(axis=-1) - 1.5
    m_direct = am @ ix + bm @ iy + cm @ iz
    m_ident = 0.5 * (x + y + z) @ inv_sum - 3.0 * np.eye(n)
    slack = tol.slack(a.fro, b.fro, c.fro)
    return CheckBatch(
        "nesbitt", n, 3, vals.min(axis=-1), 1.5, margin, margin >= -slack, tol,
        {
            "eigs": vals,
            "construction_gap": _fro(m_direct - m_ident),
            "trace": _rtr(m_direct),
        },
    )


def check_nesbitt(a: PDMatrix, b: PDMatrix, c: PDMatrix, tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    """Three-variable cyclic bound: every eigenvalue of
    A(B+C)^{-1} + B(C+A)^{-1} + C(A+B)^{-1} is >= 3/2.

    Evaluated via the sum identity M = (1/2)(X+Y+Z)(X^{-1}+Y^{-1}+Z^{-1}) - 3I
    with X=B+C, Y=C+A, Z=A+B, which reduces the spectrum to a Hermitian
    problem; the direct construction of M is cross-checked entrywise.
    """
    _check_dims(a, b, c)
    return batch_nesbitt(*_one(a, b, c), tol).report()


def batch_nesbitt_k(mats, tol: Tolerance = DEFAULT_TOL) -> CheckBatch:
    ctx = _context(mats)
    mats = ctx.mats
    k = mats.shape[-3]
    if k < 2:
        raise SingularDenominator("k must be >= 2: S - A_1 vanishes for a single member")
    s = ctx.total
    inv_sum = _psum(_inv(s[..., None, :, :] - mats))
    vals = _pd_product_eigvals(s, inv_sum) - k
    rhs = k / (k - 1)
    margin = vals.min(axis=-1) - rhs
    slack = tol.slack(*np.moveaxis(ctx.fro, -1, 0))
    return CheckBatch(
        "nesbitt_k", mats.shape[-1], k, vals.min(axis=-1), rhs, margin, margin >= -slack, tol,
        {"eigs": vals},
    )


def check_nesbitt_k(f: CyclicFamily, tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    """k-variable generalization: eigenvalues of sum_i A_i (S - A_i)^{-1}
    are >= k/(k-1), with S the sum of the family."""
    return batch_nesbitt_k(_one_family(f), tol).report()


# ---------------------------------------------------------------------------
# The cyclic trace functional and its inequalities
# ---------------------------------------------------------------------------

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
    return np.take(mats, _shift_index(mats.shape[-3], k), axis=-3)


def cyclic_denominators(mats):
    """S_i = A_{i+1} + A_{i+2} over stacked families (..., p, n, n), cyclic in p."""
    return cyclic_shift(mats, 1) + cyclic_shift(mats, 2)


def cyclic_terms(mats):
    """S_i^{-1} A_i over stacked families (..., p, n, n).

    Real 1x1 blocks divide; on the shipped BLAS a 1x1 solve rounds the same
    (tests/test_inequalities.py checks it). Otherwise one batched solve.
    """
    dens = cyclic_denominators(mats)
    if mats.shape[-1] == 1 and not np.iscomplexobj(mats):
        return mats / dens
    return np.linalg.solve(dens, mats)


def _sum_over_p(terms):
    """Sum of terms[..., i] over the last axis, added in order i = 0..p-1.

    np.sum adds pairwise, so it would round differently from one family's sum;
    a cumulative sum adds in order. The closing + 0.0 makes an all -0.0 sum
    +0.0, as a sum started from 0.0 is.
    """
    return np.cumsum(terms, axis=-1)[..., -1] + 0.0


def _require_cycle(p: int):
    if p < 3:
        raise ValueError("the cyclic sum needs p >= 3")


def cyclic_traces(mats):
    """Tr[ sum_i A_i S_i^{-1} ] of each stacked family (..., p, n, n); p >= 3."""
    _require_cycle(mats.shape[-3])
    return _sum_over_p(np.trace(cyclic_terms(mats), axis1=-2, axis2=-1).real)


def cyclic_sum_trace(f: CyclicFamily, refine: bool = False) -> float:
    """Tr[ sum_i A_i (A_{i+1} + A_{i+2})^{-1} ] with cyclic indices (p >= 3).

    With ``refine`` the denominators pass the Hermitian and PD gates and are
    inverted with one Newton step plus a residual gate (the kernel behind
    :func:`inverse_pd`) rather than by a plain solve; used for high-scrutiny
    re-verification of search results.
    """
    mats = np.stack(f.arrays())
    if not refine:
        return float(cyclic_traces(mats))
    _require_cycle(f.p)
    dens = _symmetrize(cyclic_denominators(mats), _LOOSE_TOL)
    _pd_floor(dens, _LOOSE_TOL)
    return float(_sum_over_p(_rtr(mats @ _refined_inverse(dens)[0])))


def batch_shapiro_trace(mats, tol: Tolerance = DEFAULT_TOL) -> CheckBatch:
    ctx = _context(mats)
    n, p = ctx.mats.shape[-1], ctx.mats.shape[-3]
    val = ctx.traces
    rhs = p * n / 2.0
    margin = val - rhs
    slack = tol.rel * (1.0 + abs(val) + rhs)
    return CheckBatch(
        "shapiro_trace", n, p, val, rhs, margin, margin >= -slack, tol,
        {"scalar_theorem_p": p in SCALAR_VALID_P},
    )


def check_shapiro_trace(f: CyclicFamily, tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    """Conditional cyclic trace bound: Tr-sum >= p*n/2.

    A failed verdict is a counterexample candidate, not necessarily a bug:
    the scalar analogue is known false outside ``SCALAR_VALID_P``.
    """
    return batch_shapiro_trace(_one_family(f), tol).report()


def batch_s4_decomposition(am, bm, cm, dm, tol: Tolerance = DEFAULT_TOL) -> CheckBatch:
    a, b, c, d = _context(am), _context(bm), _context(cm), _context(dm)
    n = a.mats.shape[-1]
    mats = a.cycle(b, c, d).mats
    inv = _inv(cyclic_denominators(mats))
    numerators = np.stack([mats, cyclic_shift(mats, 1), cyclic_shift(mats, 2)], axis=-4)
    sums = _psum(numerators @ inv[..., None, :, :, :])
    m, nn, pp = (sums[..., i, :, :] for i in range(3))
    identity_res = _fro(nn + pp - 4.0 * np.eye(n))
    norms = (a.fro, b.fro, c.fro, d.fro)
    slack = tol.slack(*norms)
    tr_m = _rtr(m)
    margins = {
        "m_plus_p": _rtr(m + pp) - 4.0 * n,
        "m_plus_n": _rtr(m + nn) - 4.0 * n,
        "m": tr_m - 2.0 * n,
    }
    holds = identity_res <= 1e-10 * (1.0 + sum(norms))
    for v in margins.values():
        holds = holds & (v >= -slack)
    return CheckBatch(
        "s4_decomposition", n, 4, tr_m, 2.0 * n, margins["m"], holds, tol,
        {
            "tr_m": tr_m,
            "tr_n": _rtr(nn),
            "tr_p": _rtr(pp),
            "identity_residual": identity_res,
            **{f"margin_{k}": v for k, v in margins.items()},
        },
    )


def check_s4_decomposition(
    a: PDMatrix, b: PDMatrix, c: PDMatrix, d: PDMatrix, tol: Tolerance = DEFAULT_TOL
) -> CheckReport:
    """Four-variable trace bound Tr(M) >= 2n via the M/N/P decomposition.

    M, N and P are sum_i A_{i+k} (A_{i+1} + A_{i+2})^{-1} over (A, B, C, D)
    for k = 0, 1, 2. Verifies the exact identity N + P = 4I, the intermediate
    bounds Tr(M+P) >= 4n and Tr(M+N) >= 4n, and the conclusion Tr(M) >= 2n.
    """
    _check_dims(a, b, c, d)
    return batch_s4_decomposition(*_one(a, b, c, d), tol).report()


def batch_shapiro_extension(mats, tol: Tolerance = DEFAULT_TOL) -> CheckBatch:
    ctx = _context(mats)
    mats = ctx.mats
    n, p = mats.shape[-1], mats.shape[-3]
    base = ctx.traces
    ext = cyclic_traces(np.concatenate([mats, mats[..., :2, :, :]], axis=-3))
    expected = base + n
    diff = abs(ext - expected)
    allowed = 1e-10 * (1.0 + abs(base) + n)
    return CheckBatch(
        "shapiro_extension", n, p, ext, expected, -diff, diff <= allowed, tol,
        {"base": base, "extended": ext},
    )


def check_shapiro_extension(f: CyclicFamily, tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    """Exact identity F(A_1..A_p, A_1, A_2) = F(A_1..A_p) + n."""
    return batch_shapiro_extension(_one_family(f), tol).report()


def batch_bidirectional(mats, tol: Tolerance = DEFAULT_TOL) -> CheckBatch:
    ctx = _context(mats)
    mats = ctx.mats
    n, p = mats.shape[-1], mats.shape[-3]
    fwd, rev = ctx.traces, cyclic_traces(mats[..., ::-1, :, :])
    rhs = float(p * n)
    margin = fwd + rev - rhs
    slack = tol.rel * (1.0 + fwd + rev + rhs)
    return CheckBatch(
        "bidirectional", n, p, fwd + rev, rhs, margin, margin >= -slack, tol,
        {"forward": fwd, "reversed": rev},
    )


def check_bidirectional(f: CyclicFamily, tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    """Unconditional: forward plus reversed cyclic trace sums are >= p*n."""
    return batch_bidirectional(_one_family(f), tol).report()


def _cyclic_matrix_sum(mats) -> np.ndarray:
    """sum_i A_i S_i^{-1} of each stacked family (..., p, n, n); p >= 3.

    A_i S_i^{-1} is the conjugate transpose of S_i^{-1} A_i, as A_i and S_i
    are Hermitian.
    """
    _require_cycle(mats.shape[-3])
    return _psum(_ct(cyclic_terms(mats)))


def _bidirectional_matrix(mats) -> np.ndarray:
    """Forward plus backward cyclic-sum matrix of each stacked family (..., p, n, n)."""
    return _cyclic_matrix_sum(np.stack([mats, mats[..., ::-1, :, :]], axis=-4)).sum(axis=-3)


def batch_bidirectional_eig4(a1, a2, a3, a4, tol: Tolerance = DEFAULT_TOL) -> CheckBatch:
    a1, a2, a3, a4 = _context(a1), _context(a2), _context(a3), _context(a4)
    total = _bidirectional_matrix(a1.cycle(a2, a3, a4).mats)
    eigs, _ = eig_general_stack(total)
    min_real = eigs.real.min(axis=-1)
    max_imag = abs(eigs.imag).max(axis=-1)
    margin = min_real - 4.0
    scale = _fro(total)
    slack = tol.slack(scale)
    return CheckBatch(
        "bidirectional_eig4", a1.mats.shape[-1], 4, min_real, 4.0, margin, margin >= -slack, tol,
        {
            "eigs": eigs,
            "max_imag": max_imag,
            "effectively_real": max_imag <= 1e-8 * np.maximum(scale, 1.0),
        },
    )


def check_bidirectional_eig4(
    a1: PDMatrix, a2: PDMatrix, a3: PDMatrix, a4: PDMatrix, tol: Tolerance = DEFAULT_TOL
) -> CheckReport:
    """Four-variable eigenvalue form: the forward plus backward cyclic-sum
    matrix has every eigenvalue with real part >= 4."""
    _check_dims(a1, a2, a3, a4)
    return batch_bidirectional_eig4(*_one(a1, a2, a3, a4), tol).report()


def bidirectional_spectrum(f: CyclicFamily):
    """Exploratory diagnostic: spectrum of the forward+backward cyclic-sum
    matrix for general p >= 3. No verdict is attached beyond p=4."""
    return eig_general(_bidirectional_matrix(np.stack(f.arrays())))


# ---------------------------------------------------------------------------
# Damped three-variable upper bound and its W/Z certificate
# ---------------------------------------------------------------------------

def _two_ab_sums(mats) -> tuple[np.ndarray, np.ndarray]:
    """M = sum_i A_i (2A_i + A_{i+1})^{-1} and N = sum_i A_{i+1} (2A_i + A_{i+1})^{-1}
    over the cycle (A, B, C) stacked as (..., 3, n, n)."""
    nxt = cyclic_shift(mats, 1)
    inv = _inv(2 * mats + nxt)
    sums = _psum(np.stack([mats, nxt], axis=-4) @ inv[..., None, :, :, :])
    return sums[..., 0, :, :], sums[..., 1, :, :]


def batch_upper_bound_2ab(am, bm, cm, tol: Tolerance = DEFAULT_TOL) -> CheckBatch:
    a, b, c = _context(am), _context(bm), _context(cm)
    n = a.mats.shape[-1]
    m, nn = a.cycle(b, c).two_ab
    identity_res = _fro(2.0 * m + nn - 3.0 * np.eye(n))
    tr_m, tr_n = _rtr(m), _rtr(nn)
    rhs = (3.0 * n - 1.0) / 2.0
    norms = (a.fro, b.fro, c.fro)
    slack = tol.slack(*norms)
    margin = np.minimum(rhs - tr_m, tr_n - 1.0)
    holds = (margin >= -slack) & (identity_res <= 1e-10 * (1.0 + sum(norms)))
    return CheckBatch(
        "upper_bound_2ab", n, 3, tr_m, rhs, margin, holds, tol,
        {"tr_m": tr_m, "tr_n": tr_n, "identity_residual": identity_res},
    )


def check_upper_bound_2ab(
    a: PDMatrix, b: PDMatrix, c: PDMatrix, tol: Tolerance = DEFAULT_TOL
) -> CheckReport:
    """Tr(A(2A+B)^{-1} + B(2B+C)^{-1} + C(2C+A)^{-1}) <= (3n-1)/2.

    Verifies the exact identity 2M + N = 3I and the lower bound Tr(N) >= 1
    that together give the upper bound.
    """
    _check_dims(a, b, c)
    return batch_upper_bound_2ab(*_one(a, b, c), tol).report()


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


def build_wz_certificate(a: PDMatrix, b: PDMatrix, c: PDMatrix) -> Certificate:
    """Factor pair behind Tr(N) >= 1 in the damped upper bound.

    W = (B W_1, C W_2, A W_3) and Z = (Z_1, Z_2, Z_3) with
    W_1 = (2 B^{1/2} A B^{1/2} + B^2)^{-1/2} = Z_1^{-1} and cyclic analogues.
    Key identities: W Z* = A + B + C, Tr(ZZ*) = Tr((A+B+C)^2),
    Tr(WW*) = Tr(N).
    """
    _check_dims(a, b, c)
    outer, wi, zi = _wz_blocks(np.stack([a.mat, b.mat, c.mat]))
    blocks = {}
    for i in range(3):
        blocks[f"W_{i + 1}"] = wi[i]
        blocks[f"Z_{i + 1}"] = zi[i]
    blocks["W"] = _hstack(outer @ wi)
    blocks["Z"] = _hstack(zi)
    return Certificate("wz_pair", blocks)


def batch_wz_certificate(am, bm, cm, tol: Tolerance = DEFAULT_TOL) -> CheckBatch:
    a, b, c = _context(am), _context(bm), _context(cm)
    am, bm, cm = a.mats, b.mats, c.mats
    abc = a.cycle(b, c)
    outer, wi, zi = _wz_blocks(abc.mats)
    w, z = _hstack(outer @ wi), _hstack(zi)
    wz = w @ _ct(z)
    res_wz = _fro(wz - (am + bm + cm))
    tr_zz = _rtr(z @ _ct(z))
    tr_zz_expected = _rtr(
        am @ am + bm @ bm + cm @ cm + 2.0 * (am @ bm + bm @ cm + cm @ am)
    )
    tr_ww = _rtr(w @ _ct(w))
    tr_n = _rtr(abc.two_ab[1])
    quotient = _abs2(np.trace(wz, axis1=-2, axis2=-1)) / tr_zz
    norms = (a.fro, b.fro, c.fro)
    ident_tol = 1e-9 * (1.0 + sum(norms) ** 2)
    slack = tol.slack(*norms)
    holds = (
        (res_wz <= ident_tol)
        & (abs(tr_zz - tr_zz_expected) <= ident_tol)
        & (abs(tr_ww - tr_n) <= ident_tol)
        & (quotient >= 1.0 - slack)
    )
    return CheckBatch(
        "wz_certificate", am.shape[-1], 3, quotient, 1.0, quotient - 1.0, holds, tol,
        {
            "wz_residual": res_wz,
            "tr_zz": tr_zz,
            "tr_zz_expected": tr_zz_expected,
            "tr_ww": tr_ww,
            "tr_n": tr_n,
        },
    )


def check_wz_certificate(
    a: PDMatrix, b: PDMatrix, c: PDMatrix, tol: Tolerance = DEFAULT_TOL
) -> CheckReport:
    """Verify the W/Z certificate identities and the quotient bound
    |Tr(WZ*)|^2 / Tr(ZZ*) >= 1."""
    _check_dims(a, b, c)
    return batch_wz_certificate(*_one(a, b, c), tol).report()


def batch_square_cycle(mats, tol: Tolerance = DEFAULT_TOL) -> CheckBatch:
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
    margin = lhs - rhs
    slack = tol.rel * (1.0 + abs(lhs) + abs(rhs))
    norms = _sum_over_p(ctx.fro)
    holds = (margin >= -slack) & (np.maximum(res_wz, res_zz) <= 1e-9 * (1.0 + norms))
    return CheckBatch(
        "square_cycle", n, p, lhs, rhs, margin, holds, tol,
        {"wz_residual": res_wz, "zz_residual": res_zz},
    )


def check_square_cycle(f: CyclicFamily, tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    """Tr(A_1^2 A_2^{-1} + ... + A_p^2 A_1^{-1}) >= Tr(A_1 + ... + A_p).

    The proof's factor pair W = (A_i A_{i+1}^{-1/2}), Z = (A_{i+1}^{1/2}) is
    rebuilt and its identities W Z* = Z Z* = sum(A_i) are verified in detail.
    """
    return batch_square_cycle(_one_family(f), tol).report()


# ---------------------------------------------------------------------------
# The published four-variable counterexample
# ---------------------------------------------------------------------------

def counterexample_fixture() -> tuple[PDMatrix, PDMatrix, PDMatrix, PDMatrix]:
    """The 2x2 quadruple (A, B, C, D) of the eigenvalue counterexample."""
    return tuple(make_pd(FIXTURE_ENTRIES[k]) for k in "ABCD")


def counterexample_family() -> CyclicFamily:
    return CyclicFamily(counterexample_fixture())


def reproduce_counterexample(tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    """Rebuild M = A(B+C)^{-1} + B(C+D)^{-1} + C(D+A)^{-1} + D(A+B)^{-1} from
    the fixture and confirm its spectrum is the published complex pair
    2.6393 +/- 0.1871i (so the eigenvalue form of the p=4 inequality fails).

    Raises :class:`FixtureMismatch` if the spectrum or trace deviates by more
    than 1e-3 from the published values.
    """
    a, b, c, d = counterexample_fixture()
    m = _cyclic_matrix_sum(np.stack([a.mat, b.mat, c.mat, d.mat]))
    spec = eig_general(m)
    expected = np.array(FIXTURE_EIGS)
    dev = float(np.abs(spec.values - expected).max())
    trace = float(_rtr(m))
    if dev > FIXTURE_ATOL or abs(trace - FIXTURE_TRACE) > FIXTURE_ATOL:
        raise FixtureMismatch(
            f"computed spectrum {spec.values} / trace {trace:.6f} deviates from "
            f"published values beyond {FIXTURE_ATOL:g}"
        )
    max_imag = spec.max_imag_abs
    return CheckReport(
        "counterexample_p4_eigs", 2, 4, spec.values, 2.0, -max_imag,
        True, tol,
        {
            "eigs": spec.values,
            "trace": trace,
            "max_imag": max_imag,
            "eigenvalue_form_fails": max_imag > 1e-8 * float(np.linalg.norm(m)),
        },
    )
