"""Hermitian / positive definite matrix types and the linear algebra they need.

Everything downstream (inequality checkers, counterexample search) is built on
the handful of primitives here: validated construction, random sampling, and
the kernels the batched checkers run on stacks (..., n, n) of raw arrays:
Hermitian and general eigensolvers, Hermitian powers, and one refined inverse
with a residual gate.

All values are immutable after construction (backing arrays are frozen), so
they are safe to share between concurrent trials.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
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


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _as_matrix(entries) -> np.ndarray:
    a = np.asarray(entries)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSquare(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NotFinite("matrix has an infinite or NaN entry")
    if np.iscomplexobj(a):
        return a.astype(np.complex128, copy=True)
    return a.astype(np.float64, copy=True)


@dataclass(frozen=True)
class HermMatrix:
    """A Hermitian matrix; ``entries`` are exactly symmetrized at construction."""

    entries: np.ndarray

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


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
    if (asym > tol.rel * (1.0 + _fro(a))).any():
        raise NotHermitian(f"asymmetry {float(asym.max()):g} exceeds tolerance")
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
        raise NotPositiveDefinite(np.ravel(w0)[np.ravel(bad)][0])
    return w0


def make_herm(entries, tol: Tolerance = DEFAULT_TOL) -> HermMatrix:
    """Validate Hermitian symmetry and symmetrize exactly.

    Round-off level asymmetry (below ``tol.rel`` relative) is silently folded
    into (H + H*)/2; anything larger raises :class:`NotHermitian`. An entry
    whose real or imaginary part exceeds ``MAX_ENTRY`` raises
    :class:`EntryTooLarge`.
    """
    a = _as_matrix(entries)
    # real and imaginary parts apart: the modulus of a huge complex entry overflows
    if max(np.abs(a.real).max(initial=0.0), np.abs(a.imag).max(initial=0.0)) > MAX_ENTRY:
        raise EntryTooLarge(f"matrix has an entry above {MAX_ENTRY:g} in magnitude")
    return HermMatrix(_freeze(_symmetrize(a, tol)))


@dataclass(frozen=True)
class PDMatrix(HermMatrix):
    """Hermitian positive definite matrix with its smallest eigenvalue cached."""

    min_eig: float

    @property
    def mat(self) -> np.ndarray:
        return self.entries


@dataclass(frozen=True)
class CyclicFamily:
    """Ordered tuple (A_1, ..., A_p) of equal-dimension PD matrices."""

    members: tuple[PDMatrix, ...]

    def __post_init__(self):
        if len(self.members) < 1:
            raise ValueError("a cyclic family needs at least one member")
        dims = {m.dim for m in self.members}
        if len(dims) != 1:
            raise DimensionMismatch(f"members have mixed dimensions {sorted(dims)}")

    @property
    def p(self) -> int:
        return len(self.members)

    @property
    def dim(self) -> int:
        return self.members[0].dim

    def arrays(self) -> list[np.ndarray]:
        return [m.mat for m in self.members]


def make_pd(entries, tol: Tolerance = DEFAULT_TOL) -> PDMatrix:
    """Construction gate: symmetrize, then require min eigenvalue > tol.abs."""
    h = make_herm(entries, tol).entries
    return PDMatrix(h, float(_pd_floor(h, tol)))


def _check_sampling(n: int, field: str, ridge: float):
    if n < 1:
        raise ValueError("n must be >= 1")
    if ridge <= 0:
        raise ValueError("ridge must be positive")
    if field not in ("real", "complex"):
        raise ValueError(f"unknown field {field!r}")


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


def random_pd(
    n: int,
    rng: np.random.Generator,
    field: str = "real",
    ridge: float = DEFAULT_RIDGE,
    cond_cap: float = DEFAULT_COND_CAP,
) -> PDMatrix:
    """Sample A = G G* + ridge*I with standard-normal G; reject ill-conditioned draws.

    Deterministic given the generator state.
    """
    _check_sampling(n, field, ridge)
    for _ in range(1000):
        a, w = _gram(_gaussian(rng, (), n, field), ridge)
        if w[-1] / w[0] <= cond_cap:
            return PDMatrix(_freeze(a), float(w[0]))
    raise IllConditioned("could not sample a matrix under the condition cap")


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
    """``trials`` rows of ``members`` :func:`random_pd` draws, as one
    (trials, members + gaussian_tail, n, n) array.

    Row after row, the stream is taken exactly as ``members`` sequential
    :func:`random_pd` calls and then ``gaussian_tail`` raw standard-normal
    (n, n) squares (complex: real part, then imaginary part) would take it;
    the tail entries of each row are those squares, not PD matrices. All
    rows are drawn at once; if any member breaks ``cond_cap``, the generator
    is rewound and the rows are redrawn one matrix at a time, so the result
    and the final generator state equal the sequential ones.
    """
    _check_sampling(n, field, ridge)
    state = rng.bit_generator.state
    out = _gaussian(rng, (trials, members + gaussian_tail), n, field)
    a, w = _gram(out[:, :members], ridge)
    if (w[..., -1] / w[..., 0] <= cond_cap).all():
        out[:, :members] = a
        return out
    rng.bit_generator.state = state
    for row in out:
        for i in range(members):
            row[i] = random_pd(n, rng, field, ridge, cond_cap).mat
        row[members:] = _gaussian(rng, (gaussian_tail,), n, field)
    return out


def family_from_stack(mats: np.ndarray) -> CyclicFamily:
    """The cyclic family of an exactly Hermitian stack (p, n, n), entries copied.

    The stack is PD by construction (a sample, or factors times their
    transposes plus a ridge), so only the positivity floor is checked.
    """
    w0 = _pd_floor(mats, _LOOSE_TOL)
    return CyclicFamily(tuple(PDMatrix(_freeze(np.array(m)), float(w)) for m, w in zip(mats, w0)))


def random_family(
    n: int,
    p: int,
    rng: np.random.Generator,
    field: str = "real",
    ridge: float = DEFAULT_RIDGE,
) -> CyclicFamily:
    return family_from_stack(random_pd_stack(n, 1, p, rng, field, ridge)[0])


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


def pd_product_similar(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """S^{1/2} T S^{1/2} for stacks of PD S and T: similar to S T (and T S), so it
    has the product's eigenvalues, and Hermitian up to rounding."""
    (r,) = herm_powers(s, 0.5)
    return r @ t @ r


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
