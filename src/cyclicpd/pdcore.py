"""Hermitian / positive definite matrix types and the linear algebra they need.

Everything downstream (inequality checkers, counterexample search) is built on
the handful of primitives here: validated construction, random sampling,
Hermitian and general eigensolvers, square roots, inverses with refinement,
and Loewner-order comparison with an explicit tolerance policy.

All values are immutable after construction (backing arrays are frozen), so
they are safe to share between concurrent trials.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    IllConditioned,
    NotFinite,
    NotHermitian,
    NotPositiveDefinite,
    NotSquare,
)

DEFAULT_RIDGE = 1e-3
DEFAULT_COND_CAP = 1e8


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
        if self.rel <= 0 or self.abs <= 0:
            raise ValueError("tolerances must be positive")

    def slack(self, *norms: float) -> float:
        """Allowed negative margin for operands of the given norms."""
        return self.rel * (1.0 + float(sum(norms)))


DEFAULT_TOL = Tolerance()


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

    @property
    def is_real(self) -> bool:
        return not np.iscomplexobj(self.entries)

    def norm(self) -> float:
        return float(np.linalg.norm(self.entries))


def make_herm(entries, tol: Tolerance = DEFAULT_TOL) -> HermMatrix:
    """Validate Hermitian symmetry and symmetrize exactly.

    Round-off level asymmetry (below ``tol.rel`` relative) is silently folded
    into (H + H*)/2; anything larger raises :class:`NotHermitian`.
    """
    a = _as_matrix(entries)
    asym = float(np.linalg.norm(a - a.conj().T))
    if asym > tol.rel * (1.0 + float(np.linalg.norm(a))):
        raise NotHermitian(f"asymmetry {asym:g} exceeds tolerance")
    h = (a + a.conj().T) / 2.0
    if np.iscomplexobj(h) and float(np.abs(h.imag).max(initial=0.0)) == 0.0:
        h = h.real.copy()
    return HermMatrix(_freeze(h))


@dataclass(frozen=True)
class PDMatrix:
    """Hermitian positive definite matrix with its smallest eigenvalue cached."""

    base: HermMatrix
    min_eig: float

    @property
    def mat(self) -> np.ndarray:
        return self.base.entries

    @property
    def dim(self) -> int:
        return self.base.dim

    @property
    def is_real(self) -> bool:
        return self.base.is_real

    def norm(self) -> float:
        return self.base.norm()


@dataclass(frozen=True)
class CyclicFamily:
    """Ordered tuple (A_1, ..., A_p) of equal-dimension PD matrices.

    Indexing is cyclic and 1-based to match the usual statement of the
    inequalities: ``member(p + 1)`` is ``member(1)``.
    """

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

    def member(self, i: int) -> PDMatrix:
        return self.members[(i - 1) % self.p]

    def arrays(self) -> list[np.ndarray]:
        return [m.mat for m in self.members]

    def reversed(self) -> "CyclicFamily":
        return CyclicFamily(tuple(self.members[::-1]))


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted by (real, imaginary) part, with a residual bound.

    ``residual_bound`` dominates max_i ||M v_i - lambda_i v_i|| / ||M||.
    """

    values: np.ndarray
    residual_bound: float

    @property
    def min_real(self) -> float:
        return float(self.values.real.min())

    @property
    def max_imag_abs(self) -> float:
        return float(np.abs(np.asarray(self.values).imag).max())


@dataclass(frozen=True)
class LoewnerResult:
    holds: bool
    margin: float


def make_pd(entries, tol: Tolerance = DEFAULT_TOL) -> PDMatrix:
    """Construction gate: symmetrize, then require min eigenvalue > tol.abs."""
    h = make_herm(entries, tol)
    w = np.linalg.eigvalsh(h.entries)
    if w[0] <= tol.abs:
        raise NotPositiveDefinite(w[0])
    return PDMatrix(h, float(w[0]))


def _pd_from_herm_entries(h: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> PDMatrix:
    """Internal fast path: h is already exactly Hermitian."""
    w = np.linalg.eigvalsh(h)
    if w[0] <= tol.abs:
        raise NotPositiveDefinite(w[0])
    return PDMatrix(HermMatrix(_freeze(h)), float(w[0]))


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
    if n < 1:
        raise ValueError("n must be >= 1")
    if ridge <= 0:
        raise ValueError("ridge must be positive")
    if field not in ("real", "complex"):
        raise ValueError(f"unknown field {field!r}")
    for _ in range(1000):
        g = rng.standard_normal((n, n))
        if field == "complex":
            g = g + 1j * rng.standard_normal((n, n))
        a = g @ g.conj().T + ridge * np.eye(n)
        a = (a + a.conj().T) / 2.0
        w = np.linalg.eigvalsh(a)
        if w[-1] / w[0] <= cond_cap:
            return PDMatrix(HermMatrix(_freeze(a)), float(w[0]))
    raise IllConditioned("could not sample a matrix under the condition cap")


def random_family(
    n: int,
    p: int,
    rng: np.random.Generator,
    field: str = "real",
    ridge: float = DEFAULT_RIDGE,
) -> CyclicFamily:
    return CyclicFamily(tuple(random_pd(n, rng, field, ridge) for _ in range(p)))


def _entries_of(m) -> np.ndarray:
    if isinstance(m, PDMatrix):
        return m.mat
    if isinstance(m, HermMatrix):
        return m.entries
    return np.asarray(m)


def eig_herm(h) -> Spectrum:
    """Hermitian eigenvalues (real, ascending) with a computed residual bound."""
    a = _entries_of(h)
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    scale = max(float(np.linalg.norm(a)), np.finfo(float).tiny)
    res = float(np.linalg.norm(a @ v - v * w, axis=0).max()) / scale
    return Spectrum(_freeze(w.copy()), res)


def eig_general(m) -> Spectrum:
    """Full complex spectrum of a general square matrix, sorted by (Re, Im)."""
    a = _as_matrix(m)
    try:
        w, v = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    scale = max(float(np.linalg.norm(a)), np.finfo(float).tiny)
    res = float(np.linalg.norm(a @ v - v * w, axis=0).max()) / scale
    tr = complex(np.trace(a))
    if abs(w.sum() - tr) > 1e-8 * (1.0 + abs(tr)):
        raise ConvergenceFailure("eigenvalue sum disagrees with the trace")
    order = np.lexsort((w.imag, w.real))
    return Spectrum(_freeze(w[order].copy()), res)


def _sqrtm_pd(a: np.ndarray, power: float = 0.5) -> np.ndarray:
    """Hermitian power of a PD array via spectral decomposition."""
    w, v = np.linalg.eigh(a)
    s = (v * np.power(np.maximum(w, 0.0) if power >= 0 else w, power)) @ v.conj().T
    return (s + s.conj().T) / 2.0


def eig_pd_product(p: PDMatrix, q: PDMatrix) -> Spectrum:
    """Spectrum of P*Q via the similar Hermitian matrix Q^{1/2} P Q^{1/2}.

    Guaranteed real positive output, unlike a nonsymmetric solver.
    """
    if p.dim != q.dim:
        raise DimensionMismatch(f"{p.dim} vs {q.dim}")
    s = _sqrtm_pd(q.mat)
    return eig_herm(s @ p.mat @ s)


def sqrt_pd(a: PDMatrix) -> PDMatrix:
    """Principal square root, computed spectrally."""
    s = _sqrtm_pd(a.mat)
    return PDMatrix(HermMatrix(_freeze(s)), float(np.sqrt(a.min_eig)))


def inverse_pd(a: PDMatrix, tol: Tolerance = DEFAULT_TOL) -> PDMatrix:
    """Inverse with one Newton refinement step and a conditioning-scaled residual gate."""
    m = a.mat
    n = a.dim
    eye = np.eye(n)
    try:
        x = np.linalg.inv(m)
    except np.linalg.LinAlgError as exc:
        raise IllConditioned(str(exc)) from exc
    x = x @ (2.0 * eye - m @ x)
    x = (x + x.conj().T) / 2.0
    residual = float(np.linalg.norm(m @ x - eye))
    bound = 1e-10 * max(1.0, float(np.linalg.norm(m)) * float(np.linalg.norm(x)))
    if residual > bound:
        raise IllConditioned(f"inverse residual {residual:g} exceeds bound {bound:g}")
    return _pd_from_herm_entries(x, Tolerance(rel=tol.rel, abs=np.finfo(float).tiny))


def loewner_geq(a, b, tol: Tolerance = DEFAULT_TOL) -> LoewnerResult:
    """A >= B in the Loewner order, up to -rel*(1 + ||A|| + ||B||) slack."""
    am, bm = _entries_of(a), _entries_of(b)
    if am.shape != bm.shape:
        raise DimensionMismatch(f"{am.shape} vs {bm.shape}")
    margin = float(np.linalg.eigvalsh((am - bm + (am - bm).conj().T) / 2.0)[0])
    return LoewnerResult(margin >= -tol.slack(np.linalg.norm(am), np.linalg.norm(bm)), margin)
