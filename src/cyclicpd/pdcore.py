"""Cyclic families of Hermitian positive definite matrices, and the linear
algebra they need.

A family (A_1, ..., A_p) is one stack (p, n, n). Input from outside the
program enters through one gate, :func:`validate_family`, which returns the
stack read-only. The program builds, writes, checks and searches families as
such stacks: the inequality checkers and the counterexample search run on
stacks (..., n, n) of raw arrays, with the handful of kernels here: random
sampling, a general eigensolver, Hermitian powers and the spectrum of a PD
product. Two numbers set the tolerances: the relative slack ``REL_TOL`` of
the margin checks and of the Hermitian gate, and the positivity floor
``PD_FLOOR`` of outside input. The records :class:`CyclicFamily` and
:class:`PDMatrix` belong to the benchmark's reader alone: the program builds
one only in ``serialize.family_from_dict``, and the tests hold families as
stacks too.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceFailure,
    EntryTooLarge,
    NotFinite,
    NotHermitian,
    NotPositiveDefinite,
    NotSquare,
)

DEFAULT_RIDGE = 1e-3
# Largest accepted entry magnitude of a Hermitian or PD input: from about
# 1e154 the sums of squares behind the Frobenius norms overflow, and the
# Hermitian gate's bound becomes infinite. Computed matrices given to
# eig_general_stack are not held to it: a loaded family's cyclic-sum matrix
# can exceed it.
MAX_ENTRY = 1e100


# The relative slack of every margin check and of the Hermitian gate: a margin
# passes when margin >= -REL_TOL * (1 + the operands' norms).
REL_TOL = 1e-9
# The positivity floor of outside input: every smallest eigenvalue of a loaded
# family must exceed it.
PD_FLOOR = 1e-12


def _ct(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix of a stack (..., n, n)."""
    return a.swapaxes(-1, -2).conj()


def _fro(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack (..., n, n).

    Summed by one dot product per matrix, as np.linalg.norm sums a single
    matrix; its axis= form sums in another order and rounds differently.
    """
    flat = a.reshape(a.shape[:-2] + (1, -1))
    parts = (flat.real, flat.imag) if np.iscomplexobj(flat) else (flat,)
    sq = sum(x @ x.swapaxes(-1, -2) for x in parts)
    return np.sqrt(sq[..., 0, 0])


def _symmetrize(a: np.ndarray) -> np.ndarray:
    """The Hermitian gate over a stack (..., n, n): (A + A*)/2, or NotHermitian
    for an asymmetry above ``REL_TOL`` relative.

    A complex stack whose symmetrized entries are all real comes back real.
    """
    asym = _fro(a - _ct(a))
    bad = asym > REL_TOL * (1.0 + _fro(a))
    if bad.any():
        raise NotHermitian(f"asymmetry {float(asym[bad][0]):g} exceeds tolerance")
    h = (a + _ct(a)) / 2.0
    if np.iscomplexobj(h) and float(np.abs(h.imag).max(initial=0.0)) == 0.0:
        h = h.real.copy()
    return h


def _pd_floor(h: np.ndarray, floor: float = np.finfo(float).tiny) -> np.ndarray:
    """The positive definiteness gate over a Hermitian stack (..., n, n).

    Returns the smallest eigenvalues; raises NotPositiveDefinite unless each
    exceeds ``floor``. The default, the smallest normal float, is the floor of
    matrices that are PD by construction.
    """
    w0 = np.linalg.eigvalsh(h)[..., 0]
    bad = w0 <= floor
    if bad.any():
        raise NotPositiveDefinite(w0[bad][0])
    return w0


def validate_family(entries) -> np.ndarray:
    """The construction gate: a read-only Hermitian positive definite stack (p, n, n).

    Checks, in order, that the input is a non-empty stack of square matrices,
    that every entry is finite, and that no entry's real or imaginary part
    exceeds ``MAX_ENTRY`` (:class:`EntryTooLarge`). An asymmetry below
    ``REL_TOL`` (1e-9) relative is folded into (A + A*)/2, a larger one raises
    :class:`NotHermitian`, and every smallest eigenvalue must exceed
    ``PD_FLOOR`` (1e-12). Each check reports the first member that fails it.
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
    h = _symmetrize(a)
    _pd_floor(h, PD_FLOOR)
    h.setflags(write=False)
    return h


@dataclass(frozen=True)
class PDMatrix:
    """One member of a :class:`CyclicFamily`: a read-only view ``mat`` of its
    stack. Kept only for the benchmark's reader until ROADMAP item 1."""

    mat: np.ndarray


@dataclass(frozen=True)
class CyclicFamily:
    """The cyclic family (A_1, ..., A_p) of one Hermitian PD stack (p, n, n),
    as :func:`cyclicpd.serialize.family_from_dict` returns it.

    The program and its tests pass the stack itself. This record is kept
    only for the benchmark's reader (``.p``, ``.dim``, ``.members``,
    ``cyclic_sum_trace``) until ROADMAP item 1.
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


def rng_for(seed: int, *key: int) -> np.random.Generator:
    """The generator of stream ``key`` under master ``seed``: every seeded
    draw of the program takes its numbers from one of these."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def _gaussian(rng: np.random.Generator, shape: tuple, n: int, field: str) -> np.ndarray:
    """Standard-normal (n, n) squares over ``shape``, in C order: the stream that
    one (n, n) draw per square (complex: real part, then imaginary part) takes."""
    if field == "real":
        return rng.standard_normal((*shape, n, n))
    g = rng.standard_normal((*shape, 2, n, n))
    return g[..., 0, :, :] + 1j * g[..., 1, :, :]


def _gram(g: np.ndarray) -> np.ndarray:
    """G G* + DEFAULT_RIDGE*I over stacks, exactly Hermitian."""
    a = g @ _ct(g) + DEFAULT_RIDGE * np.eye(g.shape[-1])
    return (a + _ct(a)) / 2.0


def random_pd_stack(
    n: int,
    trials: int,
    members: int,
    rng: np.random.Generator,
    field: str = "real",
    gaussian_tail: int = 0,
) -> np.ndarray:
    """``trials`` rows of ``members`` random PD matrices G G* + DEFAULT_RIDGE*I
    (G standard normal) and ``gaussian_tail`` raw standard-normal (n, n)
    squares, as one (trials, members + gaussian_tail, n, n) array.

    The stream is taken row after row, one draw per matrix (complex: real
    part, then imaginary part). A member's condition number is at most
    1 + ||G||_2^2 / 1e-3: under 1e6 at verify's n <= 6 (pinned by the tests),
    and 1e8 only from ||G||_2^2 = 1e5, near n = 25 000 (real) or 12 500 (complex).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if field not in ("real", "complex"):
        raise ValueError(f"unknown field {field!r}")
    out = _gaussian(rng, (trials, members + gaussian_tail), n, field)
    out[:, :members] = _gram(out[:, :members])
    return out


def eig_general_stack(a: np.ndarray) -> np.ndarray:
    """Complex eigenvalues of each matrix of a stack (..., n, n) of general
    square matrices, sorted by (Re, Im).

    Raises ConvergenceFailure if any spectrum's sum disagrees with its trace.
    """
    if not np.isfinite(a).all():
        raise NotFinite("matrix has an infinite or NaN entry")
    try:
        w = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    tr = np.trace(a, axis1=-2, axis2=-1)
    if (abs(w.sum(axis=-1) - tr) > 1e-8 * (1.0 + abs(tr))).any():
        raise ConvergenceFailure("eigenvalue sum disagrees with the trace")
    order = np.lexsort((w.imag, w.real))
    return np.take_along_axis(w, order, axis=-1)


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

