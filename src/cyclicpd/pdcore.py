"""Cyclic families of Hermitian positive definite matrices, and the linear
algebra they need.

A family (A_1, ..., A_p) is one stack (p, n, n). Input from outside the
program enters through one gate, :func:`validate_family`, which returns the
stack read-only; :class:`CyclicFamily` is a record of such a stack.
Everything downstream (inequality checkers, counterexample search) runs on
stacks (..., n, n) of raw arrays, with the handful of kernels here: random
sampling, Hermitian and general eigensolvers, Hermitian powers, the spectrum
of a PD product, and one refined inverse with a residual gate.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceFailure,
    EntryTooLarge,
    IllConditioned,
    NotFinite,
    NotHermitian,
    NotPositiveDefinite,
    NotSquare,
)

DEFAULT_RIDGE = 1e-3
DEFAULT_COND_CAP = 1e8
# Largest accepted entry magnitude of a Hermitian or PD input: from about
# 1e154 the sums of squares behind the Frobenius norms overflow, and the
# Hermitian gate's bound becomes infinite. Computed matrices given to
# eig_general_stack are not held to it: a loaded family's cyclic-sum matrix
# can exceed it.
MAX_ENTRY = 1e100


@dataclass(frozen=True)
class Tolerance:
    """Comparison policy for floating-point inequality checks.

    ``rel`` scales with the operand norms (margin checks accept
    margin >= -rel*(1 + norms)); ``abs`` is the strictness floor for
    positive definiteness at construction time.
    """

    rel: float = 1e-9
    abs: float = 1e-12

    def __post_init__(self):
        if not (0.0 < self.rel < np.inf and 0.0 < self.abs < np.inf):
            raise ValueError("tolerances must be positive and finite")

    def slack(self, *norms):
        """Allowed negative margin for operands of the given norms (floats or per-trial arrays)."""
        return self.rel * (1.0 + sum(norms))


DEFAULT_TOL = Tolerance()
# the positivity floor alone, for matrices that are PD by construction
_LOOSE_TOL = Tolerance(abs=np.finfo(float).tiny)


def _ct(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix of a stack (..., n, n)."""
    return np.swapaxes(a, -1, -2).conj()


def _fro(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack (..., n, n).

    Summed by one dot product per matrix, as np.linalg.norm sums a single
    matrix; its axis= form sums in another order and rounds differently.
    """
    flat = a.reshape(a.shape[:-2] + (1, -1))
    parts = (flat.real, flat.imag) if np.iscomplexobj(flat) else (flat,)
    sq = sum(x @ np.swapaxes(x, -1, -2) for x in parts)
    return np.sqrt(sq[..., 0, 0])


def _symmetrize(a: np.ndarray, tol: Tolerance) -> np.ndarray:
    """The Hermitian gate over a stack (..., n, n): (A + A*)/2, or NotHermitian.

    A complex stack whose symmetrized entries are all real comes back real.
    """
    asym = _fro(a - _ct(a))
    bad = asym > tol.rel * (1.0 + _fro(a))
    if bad.any():
        raise NotHermitian(f"asymmetry {float(asym[bad][0]):g} exceeds tolerance")
    h = (a + _ct(a)) / 2.0
    if np.iscomplexobj(h) and float(np.abs(h.imag).max(initial=0.0)) == 0.0:
        h = h.real.copy()
    return h


def _pd_floor(h: np.ndarray, tol: Tolerance) -> np.ndarray:
    """The positive definiteness gate over a Hermitian stack (..., n, n).

    Returns the smallest eigenvalues; raises NotPositiveDefinite unless each
    exceeds ``tol.abs``.
    """
    w0 = np.linalg.eigvalsh(h)[..., 0]
    bad = w0 <= tol.abs
    if bad.any():
        raise NotPositiveDefinite(w0[bad][0])
    return w0


def validate_family(entries, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """The construction gate: a read-only Hermitian positive definite stack (p, n, n).

    Checks, in order, that the input is a non-empty stack of square matrices,
    that every entry is finite, and that no entry's real or imaginary part
    exceeds ``MAX_ENTRY`` (:class:`EntryTooLarge`). Round-off level asymmetry
    (below ``tol.rel`` relative) is then folded into (A + A*)/2, anything
    larger raises :class:`NotHermitian`, and every smallest eigenvalue must
    exceed ``tol.abs``. Each check reports the first member that fails it.
    """
    a = np.asarray(entries)
    if a.shape[:1] == (0,):
        raise ValueError("a cyclic family needs at least one member")
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise NotSquare(f"expected a stack (p, n, n) of square matrices, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NotFinite("matrix has an infinite or NaN entry")
    a = a.astype(np.complex128 if np.iscomplexobj(a) else np.float64)
    # real and imaginary parts apart: the modulus of a huge complex entry overflows
    if max(np.abs(a.real).max(initial=0.0), np.abs(a.imag).max(initial=0.0)) > MAX_ENTRY:
        raise EntryTooLarge(f"matrix has an entry above {MAX_ENTRY:g} in magnitude")
    h = _symmetrize(a, tol)
    _pd_floor(h, tol)
    h.setflags(write=False)
    return h


@dataclass(frozen=True)
class PDMatrix:
    """One member of a :class:`CyclicFamily`: a read-only view ``mat`` of its stack."""

    mat: np.ndarray


@dataclass(frozen=True)
class CyclicFamily:
    """The cyclic family (A_1, ..., A_p) of one Hermitian PD stack (p, n, n).

    The stack comes from :func:`validate_family`, or is one the program built
    as PD (a sample, a search result), which the writer holds to the
    positivity floor (:func:`cyclicpd.serialize.family_to_dict`).
    """

    mats: np.ndarray

    @property
    def p(self) -> int:
        return self.mats.shape[0]

    @property
    def dim(self) -> int:
        return self.mats.shape[-1]

    @property
    def members(self) -> tuple[PDMatrix, ...]:
        """The members as one-matrix views, for readers of ``m.mat``."""
        return tuple(PDMatrix(m) for m in self.mats)


def _gaussian(rng: np.random.Generator, shape: tuple, n: int, field: str) -> np.ndarray:
    """Standard-normal (n, n) squares over ``shape``, in C order: the stream that
    one (n, n) draw per square (complex: real part, then imaginary part) takes."""
    if field == "real":
        return rng.standard_normal((*shape, n, n))
    g = rng.standard_normal((*shape, 2, n, n))
    return g[..., 0, :, :] + 1j * g[..., 1, :, :]


def _gram(g: np.ndarray, ridge: float) -> tuple[np.ndarray, np.ndarray]:
    """G G* + ridge*I, exactly Hermitian, and its ascending eigenvalues, over stacks."""
    a = g @ _ct(g) + ridge * np.eye(g.shape[-1])
    a = (a + _ct(a)) / 2.0
    return a, np.linalg.eigvalsh(a)


def random_pd_stack(
    n: int,
    trials: int,
    members: int,
    rng: np.random.Generator,
    field: str = "real",
    ridge: float = DEFAULT_RIDGE,
    cond_cap: float = DEFAULT_COND_CAP,
    gaussian_tail: int = 0,
) -> np.ndarray:
    """``trials`` rows of ``members`` random PD matrices G G* + ridge*I (G
    standard normal, redrawn up to 1000 times while the condition number
    exceeds ``cond_cap``) and ``gaussian_tail`` raw standard-normal (n, n)
    squares, as one (trials, members + gaussian_tail, n, n) array.

    The stream is taken row after row, one draw per matrix (complex: real
    part, then imaginary part). All rows are drawn at once; if any member
    breaks ``cond_cap``, the generator is rewound and the rows are redrawn
    one matrix at a time, so the result and the final generator state equal
    the sequential ones.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if ridge <= 0:
        raise ValueError("ridge must be positive")
    if field not in ("real", "complex"):
        raise ValueError(f"unknown field {field!r}")
    state = rng.bit_generator.state
    out = _gaussian(rng, (trials, members + gaussian_tail), n, field)
    a, w = _gram(out[:, :members], ridge)
    if (w[..., -1] / w[..., 0] <= cond_cap).all():
        out[:, :members] = a
        return out
    rng.bit_generator.state = state
    for row in out:
        for i in range(members):
            for _ in range(1000):
                row[i], w = _gram(_gaussian(rng, (), n, field), ridge)
                if w[-1] / w[0] <= cond_cap:
                    break
            else:
                raise IllConditioned("could not sample a matrix under the condition cap")
        row[members:] = _gaussian(rng, (gaussian_tail,), n, field)
    return out


def eig_herm_stack(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.eigh over a stack (..., n, n), raising ConvergenceFailure
    where LAPACK does not converge."""
    try:
        return np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc


def eig_general_stack(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Complex spectra of a stack (..., n, n) of general square matrices.

    Returns the eigenvalues of each matrix sorted by (Re, Im) and each
    matrix's residual bound, which dominates max_i ||M v_i - lambda_i v_i|| / ||M||.
    Raises ConvergenceFailure if any spectrum's sum disagrees with its trace.
    """
    if not np.isfinite(a).all():
        raise NotFinite("matrix has an infinite or NaN entry")
    try:
        w, v = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    scale = np.maximum(_fro(a), np.finfo(float).tiny)
    res = np.linalg.norm(a @ v - v * w[..., None, :], axis=-2).max(axis=-1) / scale
    tr = np.trace(a, axis1=-2, axis2=-1)
    if (abs(w.sum(axis=-1) - tr) > 1e-8 * (1.0 + abs(tr))).any():
        raise ConvergenceFailure("eigenvalue sum disagrees with the trace")
    order = np.lexsort((w.imag, w.real))
    return np.take_along_axis(w, order, axis=-1), res


def herm_powers(a: np.ndarray, *powers: float) -> list[np.ndarray]:
    """Hermitian powers A^q, one per q in ``powers``, of each PD matrix of a stack
    (..., n, n), from one spectral decomposition."""
    w, v = np.linalg.eigh(a)
    out = []
    for power in powers:
        s = (v * np.power(np.maximum(w, 0.0) if power >= 0 else w, power)[..., None, :]) @ _ct(v)
        out.append((s + _ct(s)) / 2.0)
    return out


def pd_product_eigvals(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of S T (and T S) for stacks of PD S and T: those of
    the similar matrix S^{1/2} T S^{1/2}, symmetrized."""
    (r,) = herm_powers(s, 0.5)
    h = r @ t @ r
    return np.linalg.eigvalsh((h + _ct(h)) / 2.0)


def _refined_inverse(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of each PD matrix of a stack (..., n, n), with one Newton step.

    Returns the symmetrized inverses and their smallest eigenvalues. Raises
    IllConditioned when a residual ||M X - I|| exceeds 1e-10 * max(1, ||M|| ||X||),
    and NotPositiveDefinite when an inverse is not positive.
    """
    eye = np.eye(m.shape[-1])
    try:
        x = np.linalg.inv(m)
    except np.linalg.LinAlgError as exc:
        raise IllConditioned(str(exc)) from exc
    x = x @ (2.0 * eye - m @ x)
    x = (x + _ct(x)) / 2.0
    residual = _fro(m @ x - eye)
    bound = 1e-10 * np.fmax(1.0, _fro(m) * _fro(x))
    bad = residual > bound
    if bad.any():
        raise IllConditioned(f"inverse residual {residual[bad][0]:g} exceeds bound {bound[bad][0]:g}")
    return x, _pd_floor(x, _LOOSE_TOL)
