"""Looped reference implementations of the checkers and the verify suites.

These are the checkers and suites as they were before trial batching: one
trial at a time, one matrix at a time, with a running record update. The
stacked ``batch_`` kernels in ``cyclicpd.inequalities`` and the suites in
``cyclicpd.verify`` are tested against them; they take the cyclic-sum
kernel (``cyclic_traces``, ``_cyclic_matrix_sum``) as it is. The conditional
suite follows the current rule: a violation that a theorem covers is a
record failure.

``ref_closed_form``, ``_inv`` and ``looped_cyclic_sum`` are the program's one
inversion rule and its cyclic-sum kernel, one matrix at a time in Python
floats: the guarded 2x2/3x3 closed form where it admits a matrix, a division
for a real 1x1 inverse, and LAPACK otherwise (an inverse symmetrized, a
cyclic-sum term by one solve).

``roll_shift``, ``roll_denominators`` and ``looped_sum_over_p`` are the
kernel helpers as they were before the index gather and the cumulative sum.
``Certificate``, ``Spectrum``, ``eig_herm`` and ``eig_general`` are the
one-object types and eigensolvers the looped checkers were written against.
``random_pd`` draws one matrix at a time: the sequential stream that
``pdcore.random_pd_stack`` must take. ``diagonal_embed`` lifts scalars to the
scalar-matrix families that the tests compare with the scalar cyclic sum.
"""
import math
from dataclasses import dataclass

import numpy as np

from cyclicpd import verify
from cyclicpd.errors import DimensionMismatch, IllConditioned, SingularDenominator
from cyclicpd.inequalities import (
    MIN_DET_RATIO,
    SCALAR_VALID_P,
    CheckReport,
    _cyclic_matrix_sum,
    cyclic_sum_trace,
    cyclic_traces,
)
from cyclicpd.pdcore import (
    DEFAULT_RIDGE,
    REL_TOL,
    CyclicFamily,
    PDMatrix,
    _ct,
    _gaussian,
    _pd_floor,
    _symmetrize,
    eig_general_stack,
    validate_family,
)
from cyclicpd.serialize import family_to_dict


@dataclass(frozen=True)
class Certificate:
    """Auxiliary matrices that re-derive a theorem.

    kind "block_psd": blocks M_1..M_p = [[A_i^{-1}, I], [I, A_i]] and their sum M.
    kind "wz_pair": block-row factors W, Z plus the per-block W_i/Z_i pieces.
    """

    kind: str
    blocks: dict


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted by (real, imaginary) part."""

    values: np.ndarray

    @property
    def min_real(self) -> float:
        return float(self.values.real.min())

    @property
    def max_imag_abs(self) -> float:
        return float(np.abs(np.asarray(self.values).imag).max())


def eig_herm(h) -> Spectrum:
    """Hermitian eigenvalues (real, ascending)."""
    return Spectrum(np.linalg.eigh(np.asarray(getattr(h, "mat", h)))[0])


def eig_general(m) -> Spectrum:
    """Full complex spectrum of a general square matrix, sorted by (Re, Im)."""
    return Spectrum(eig_general_stack(np.asarray(m)))


def _norm(m) -> float:
    return float(np.linalg.norm(m.mat))


def _sqrtm_pd(a, power=0.5):
    """Hermitian power of a PD array via spectral decomposition."""
    w, v = np.linalg.eigh(a)
    s = (v * np.power(np.maximum(w, 0.0) if power >= 0 else w, power)) @ v.conj().T
    return (s + s.conj().T) / 2.0


def eig_pd_product(p, q):
    s = _sqrtm_pd(q.mat)
    return eig_herm(s @ p.mat @ s)


def random_pd(n, rng, field="real") -> PDMatrix:
    """One A = G G* + DEFAULT_RIDGE*I with standard-normal G, redrawn while its
    condition number exceeds 1e8; deterministic given the generator.

    ``pdcore.random_pd_stack`` keeps no cap: at the shapes it is tested on no
    member comes near 1e8, so the redraw never runs there."""
    for _ in range(1000):
        g = _gaussian(rng, (), n, field)
        a = g @ _ct(g) + DEFAULT_RIDGE * np.eye(n)
        a = (a + _ct(a)) / 2.0
        w = np.linalg.eigvalsh(a)
        if w[-1] / w[0] <= 1e8:
            return PDMatrix(a)
    raise IllConditioned("could not sample a matrix under the condition cap")


def random_family(n, p, rng, field="real"):
    return CyclicFamily(np.stack([random_pd(n, rng, field).mat for _ in range(p)]))


def diagonal_embed(scalars, n: int) -> CyclicFamily:
    """Lift positive scalars to a_i * I_n; the trace functional scales by n."""
    a = np.array([float(v) for v in scalars])
    if min(a) <= 0:
        raise ValueError("scalars must be positive")
    if n < 1:
        raise ValueError("n must be >= 1")
    return CyclicFamily(validate_family(a[:, None, None] * np.eye(n)))


def closure_pd(a) -> PDMatrix:
    """A matrix that is PD by closure: symmetrized, then held to the
    positivity floor."""
    h = _symmetrize(np.asarray(a))
    _pd_floor(h)
    return PDMatrix(h)


def _slack(rel, *norms):
    """Allowed negative margin for operands of the given norms."""
    return rel * (1.0 + sum(norms))


def _add(rec, report, witness_fn=None):
    """One trial's running update of a verify.GridRecord."""
    rec.trials += 1
    rec.min_margin = min(rec.min_margin, report.margin)
    if not report.holds:
        rec.failures += 1
        if rec.witness is None and witness_fn is not None:
            rec.witness = witness_fn()


def roll_shift(mats, k):
    """A_{i+k} at member i of (..., p, n, n), by np.roll."""
    return np.roll(mats, -k, axis=-3)


def roll_denominators(mats):
    """S_i = A_{i+1} + A_{i+2} of (..., p, n, n), by np.roll."""
    return np.roll(mats, -1, axis=-3) + np.roll(mats, -2, axis=-3)


def looped_sum_over_p(terms):
    """Sum over the last axis, one Python addition per member, from 0.0."""
    total = 0.0
    for i in range(terms.shape[-1]):
        total = total + terms[..., i]
    return total


def ref_closed_form(s):
    """(cofactor matrix, det) of one symmetric 2x2 or 3x3 block, by the
    textbook minors and a first-row expansion in Python floats; None when the
    guard sends the block to LAPACK."""
    s = s.tolist()
    n = len(s)
    if n == 2:
        cof = [[s[1][1], -s[1][0]], [-s[0][1], s[0][0]]]
        diag = s[0][0] * s[1][1]
    else:
        def minor(j, k):
            (r0, r1), (c0, c1) = [x for x in range(3) if x != j], [x for x in range(3) if x != k]
            return s[r0][c0] * s[r1][c1] - s[r0][c1] * s[r1][c0]
        cof = [[minor(j, k) if (j + k) % 2 == 0 else -minor(j, k) for k in range(3)] for j in range(3)]
        diag = s[0][0] * s[1][1] * s[2][2]
    det = s[0][0] * cof[0][0]
    for k in range(1, n):
        det += s[0][k] * cof[0][k]
    if not (math.isfinite(det) and det > 0.0 and det >= MIN_DET_RATIO * diag):
        return None
    return cof, det


def _closed_form(s):
    """``ref_closed_form`` of a real 2x2 or 3x3 block; None for any other."""
    if s.shape[0] not in (2, 3) or np.iscomplexobj(s):
        return None
    return ref_closed_form(s)


def looped_cyclic_sum(mats):
    """F_p of one family (p blocks), one member at a time: each term from its
    S_i's closed form where the guard admits that S_i, else by one LAPACK
    solve."""
    p, n = len(mats), mats[0].shape[0]
    total = 0.0
    for i in range(p):
        s = mats[(i + 1) % p] + mats[(i + 2) % p]
        form = _closed_form(s)
        if form is None:
            total += float(np.trace(np.linalg.solve(s, mats[i])).real)
            continue
        cof, det = form
        a = mats[i].tolist()
        # sum over j <= k, row by row; an off-diagonal entry counts twice
        pairs = [(j, k) for j in range(n) for k in range(j, n)]
        tr = cof[0][0] * a[0][0]
        for j, k in pairs[1:]:
            tr += cof[j][k] * a[j][k] * (1.0 if j == k else 2.0)
        total += tr / det
    return total


def _inv(a: np.ndarray) -> np.ndarray:
    """A^{-1} of one matrix: 1 / a for a real 1x1, cof / det for a real 2x2
    or 3x3 that ``ref_closed_form`` admits, else LAPACK's inv, symmetrized."""
    if a.shape == (1, 1) and not np.iscomplexobj(a):
        return 1.0 / a
    form = _closed_form(a)
    if form is not None:
        cof, det = form
        return np.array([[c / det for c in row] for row in cof])
    x = np.linalg.inv(a)
    return (x + x.conj().T) / 2.0


def _rtr(a: np.ndarray) -> float:
    return float(np.trace(a).real)


def _check_dims(*mats: PDMatrix):
    dims = {m.mat.shape[0] for m in mats}
    if len(dims) != 1:
        raise DimensionMismatch(f"mixed dimensions {sorted(dims)}")


def check_trace_product(a, b, rel: float = REL_TOL) -> CheckReport:
    """0 <= Tr(AB) <= Tr(A) Tr(B) for positive semidefinite A, B."""
    am, bm = a.mat, b.mat
    if am.shape != bm.shape:
        raise DimensionMismatch(f"{am.shape} vs {bm.shape}")
    tr_ab = _rtr(am @ bm)
    tr_a, tr_b = _rtr(am), _rtr(bm)
    upper = tr_a * tr_b
    margin = min(tr_ab, upper - tr_ab)
    slack = rel * (1.0 + abs(tr_ab) + abs(upper))
    return CheckReport(
        "trace_product", am.shape[0], 0, tr_ab, upper, margin, margin >= -slack, rel,
        {"tr_a": tr_a, "tr_b": tr_b, "tr_ab": tr_ab},
    )


def check_weighted_cs(x, y, a: PDMatrix, rel: float = REL_TOL) -> CheckReport:
    """|Tr(X*Y)|^2 <= Tr(X*AX) Tr(Y*A^{-1}Y) for a positive definite weight A."""
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape or x.shape[0] != a.mat.shape[0]:
        raise DimensionMismatch(f"X {x.shape}, Y {y.shape}, A {a.mat.shape}")
    lhs = abs(complex(np.trace(x.conj().T @ y))) ** 2
    t_x = _rtr(x.conj().T @ a.mat @ x)
    t_y = _rtr(y.conj().T @ _inv(a.mat) @ y)
    rhs = t_x * t_y
    margin = rhs - lhs
    slack = rel * (1.0 + lhs + abs(rhs))
    return CheckReport(
        "weighted_cs", a.mat.shape[0], 0, lhs, rhs, margin, margin >= -slack, rel,
        {"tr_xax": t_x, "tr_yainvy": t_y},
    )


def check_cs_trace(a, b, rel: float = REL_TOL) -> CheckReport:
    """|Tr(AB*)|^2 <= Tr(AA*) Tr(BB*) (Cauchy-Schwarz in the trace inner product)."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"{a.shape} vs {b.shape}")
    lhs = abs(complex(np.trace(a @ b.conj().T))) ** 2
    rhs = _rtr(a @ a.conj().T) * _rtr(b @ b.conj().T)
    margin = rhs - lhs
    slack = rel * (1.0 + lhs + abs(rhs))
    return CheckReport("cs_trace", a.shape[0], 0, lhs, rhs, margin, margin >= -slack, rel)


def check_eigineq1(a: PDMatrix, b: PDMatrix, rel: float = REL_TOL) -> CheckReport:
    """Every eigenvalue of (A-B)(B^{-1}-A^{-1}) is >= 0.

    Evaluated through the identity with X = A B^{-1}: the spectrum equals that
    of X + X^{-1} - 2I, reduced to the Hermitian form H + H^{-1} - 2I with
    H = B^{-1/2} A B^{-1/2}.
    """
    _check_dims(a, b)
    r = _sqrtm_pd(b.mat, -0.5)
    h = r @ a.mat @ r
    h = (h + h.conj().T) / 2.0
    vals = eig_herm(h + _inv(h)).values - 2.0
    margin = float(vals.min())
    slack = _slack(rel, _norm(a), _norm(b))
    return CheckReport(
        "eigineq1", a.mat.shape[0], 0, float(vals.min()), 0.0, margin, margin >= -slack, rel, {"eigs": vals},
    )


def check_harmonic_loewner(f: CyclicFamily, rel: float = REL_TOL) -> CheckReport:
    """Sum of inverses dominates p^2 * (sum)^{-1} in the Loewner order."""
    mats = list(f.mats)
    lhs = sum(_inv(m) for m in mats)
    rhs = f.p**2 * _inv(sum(mats))
    diff = (lhs - rhs + (lhs - rhs).conj().T) / 2.0
    margin = float(np.linalg.eigvalsh(diff)[0])
    slack = _slack(rel, np.linalg.norm(lhs), np.linalg.norm(rhs))
    return CheckReport(
        "harmonic_loewner", f.dim, f.p, _rtr(lhs), _rtr(rhs), margin, margin >= -slack, rel,
    )


def build_block_certificate(f: CyclicFamily) -> Certificate:
    """The proof object behind the harmonic Loewner bound.

    Each block M_i = [[A_i^{-1}, I], [I, A_i]] is PSD; their sum M is PSD, and
    the Schur complement of M with respect to its (2,2) block equals
    sum(A_i^{-1}) - p^2 (sum A_i)^{-1}.
    """
    n = f.dim
    eye = np.eye(n)
    blocks = {}
    total = None
    for i, m in enumerate(list(f.mats), start=1):
        mi = np.block([[_inv(m), eye], [eye, m]])
        blocks[f"M_{i}"] = mi
        total = mi if total is None else total + mi
    blocks["M"] = total
    return Certificate("block_psd", blocks)


def schur_complement(m: np.ndarray, n: int) -> np.ndarray:
    """Schur complement of the trailing n x n block of a 2n x 2n matrix."""
    a, b = m[:n, :n], m[:n, n:]
    c, d = m[n:, :n], m[n:, n:]
    return a - b @ _inv(d) @ c


def check_block_certificate(f: CyclicFamily, rel: float = REL_TOL) -> CheckReport:
    """PSD-ness of every block M_i and of M, plus agreement of the
    Schur-complement path with the direct Loewner margin."""
    cert = build_block_certificate(f)
    n = f.dim
    block_min = min(
        float(np.linalg.eigvalsh((mi + mi.conj().T) / 2.0)[0])
        for name, mi in cert.blocks.items()
        if name != "M"
    )
    m = cert.blocks["M"]
    m_min = float(np.linalg.eigvalsh((m + m.conj().T) / 2.0)[0])
    sc = schur_complement(m, n)
    direct = sum(_inv(x) for x in list(f.mats)) - f.p**2 * _inv(sum(list(f.mats)))
    sc_gap = float(np.linalg.norm(sc - direct))
    scale = float(np.linalg.norm(m))
    slack = _slack(rel, scale)
    margin = min(block_min, m_min)
    holds = margin >= -slack and sc_gap <= 1e-8 * (1.0 + scale)
    return CheckReport(
        "block_certificate", n, f.p, margin, 0.0, margin, holds, rel,
        {"block_min_eig": block_min, "sum_min_eig": m_min, "schur_gap": sc_gap},
    )


def check_product_sum_eigs(f: CyclicFamily, rel: float = REL_TOL) -> CheckReport:
    """Eigenvalues of (sum A_i)(sum A_i^{-1}) are all >= p^2."""
    mats = list(f.mats)
    s = closure_pd(sum(mats))
    hinv = closure_pd(sum(_inv(m) for m in mats))
    vals = eig_pd_product(s, hinv).values
    rhs = float(f.p**2)
    margin = float(vals.min()) - rhs
    slack = _slack(rel, _norm(s), _norm(hinv))
    return CheckReport(
        "product_sum_eigs", f.dim, f.p, float(vals.min()), rhs, margin,
        margin >= -slack, rel, {"eigs": vals},
    )


def _min_eig_pd_product(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Eigenvalues of the product of two PD arrays via symmetrization."""
    r = _sqrtm_pd(s)
    h = r @ t @ r
    return np.linalg.eigvalsh((h + h.conj().T) / 2.0)


def check_nesbitt(a: PDMatrix, b: PDMatrix, c: PDMatrix, rel: float = REL_TOL) -> CheckReport:
    """Three-variable cyclic bound: every eigenvalue of
    A(B+C)^{-1} + B(C+A)^{-1} + C(A+B)^{-1} is >= 3/2.

    Evaluated via the sum identity M = (1/2)(X+Y+Z)(X^{-1}+Y^{-1}+Z^{-1}) - 3I
    with X=B+C, Y=C+A, Z=A+B, which reduces the spectrum to a Hermitian
    problem.
    """
    _check_dims(a, b, c)
    x, y, z = b.mat + c.mat, c.mat + a.mat, a.mat + b.mat
    prod_eigs = _min_eig_pd_product(x + y + z, _inv(x) + _inv(y) + _inv(z))
    vals = 0.5 * prod_eigs - 3.0
    margin = float(vals.min()) - 1.5
    slack = _slack(rel, _norm(a), _norm(b), _norm(c))
    return CheckReport(
        "nesbitt", a.mat.shape[0], 3, float(vals.min()), 1.5, margin, margin >= -slack, rel, {"eigs": vals},
    )


def check_nesbitt_k(f: CyclicFamily, rel: float = REL_TOL) -> CheckReport:
    """k-variable generalization: eigenvalues of sum_i A_i (S - A_i)^{-1}
    are >= k/(k-1), with S the sum of the family."""
    k = f.p
    if k < 2:
        raise SingularDenominator("k must be >= 2: S - A_1 vanishes for a single member")
    mats = list(f.mats)
    s = sum(mats)
    inv_sum = sum(_inv(s - m) for m in mats)
    vals = _min_eig_pd_product(s, inv_sum) - k
    rhs = k / (k - 1)
    margin = float(vals.min()) - rhs
    slack = _slack(rel, *(float(np.linalg.norm(m)) for m in mats))
    return CheckReport(
        "nesbitt_k", f.dim, k, float(vals.min()), rhs, margin, margin >= -slack, rel,
        {"eigs": vals},
    )


def check_shapiro_trace(f: CyclicFamily, rel: float = REL_TOL) -> CheckReport:
    """Conditional cyclic trace bound: Tr-sum >= p*n/2.

    A failed verdict is a counterexample candidate, not necessarily a bug:
    the scalar analogue is known false outside ``SCALAR_VALID_P``.
    """
    val = cyclic_sum_trace(f)
    rhs = f.p * f.dim / 2.0
    margin = val - rhs
    slack = rel * (1.0 + abs(val) + rhs)
    return CheckReport(
        "shapiro_trace", f.dim, f.p, val, rhs, margin, margin >= -slack, rel,
        {"scalar_theorem_p": f.p in SCALAR_VALID_P},
    )


def check_s4_decomposition(
    a: PDMatrix, b: PDMatrix, c: PDMatrix, d: PDMatrix, rel: float = REL_TOL
) -> CheckReport:
    """Four-variable trace bound Tr(M) >= 2n via the M/N/P decomposition.

    Verifies the exact identity N + P = 4I, the intermediate bounds
    Tr(M+P) >= 4n and Tr(M+N) >= 4n, and the conclusion Tr(M) >= 2n.
    """
    _check_dims(a, b, c, d)
    n = a.mat.shape[0]
    am, bm, cm, dm = a.mat, b.mat, c.mat, d.mat
    i_bc, i_cd = _inv(bm + cm), _inv(cm + dm)
    i_da, i_ab = _inv(dm + am), _inv(am + bm)
    m = am @ i_bc + bm @ i_cd + cm @ i_da + dm @ i_ab
    nn = bm @ i_bc + cm @ i_cd + dm @ i_da + am @ i_ab
    pp = cm @ i_bc + dm @ i_cd + am @ i_da + bm @ i_ab
    identity_res = float(np.linalg.norm(nn + pp - 4.0 * np.eye(n)))
    norms = (_norm(a), _norm(b), _norm(c), _norm(d))
    slack = _slack(rel, *norms)
    margins = {
        "m_plus_p": _rtr(m + pp) - 4.0 * n,
        "m_plus_n": _rtr(m + nn) - 4.0 * n,
        "m": _rtr(m) - 2.0 * n,
    }
    identity_ok = identity_res <= 1e-10 * (1.0 + sum(norms))
    holds = identity_ok and all(v >= -slack for v in margins.values())
    return CheckReport(
        "s4_decomposition", n, 4, _rtr(m), 2.0 * n, margins["m"], holds, rel,
        {
            "tr_m": _rtr(m),
            "tr_n": _rtr(nn),
            "tr_p": _rtr(pp),
            "identity_residual": identity_res,
            **{f"margin_{k}": v for k, v in margins.items()},
        },
    )


def check_shapiro_extension(f: CyclicFamily, rel: float = REL_TOL) -> CheckReport:
    """Exact identity F(A_1..A_p, A_1, A_2) = F(A_1..A_p) + n."""
    base = cyclic_sum_trace(f)
    extended = CyclicFamily(np.concatenate([f.mats, f.mats[:2]]))
    ext = cyclic_sum_trace(extended)
    expected = base + f.dim
    diff = abs(ext - expected)
    allowed = 1e-10 * (1.0 + abs(base) + f.dim)
    return CheckReport(
        "shapiro_extension", f.dim, f.p, ext, expected, -diff, diff <= allowed, rel,
        {"base": base, "extended": ext},
    )


def check_bidirectional(f: CyclicFamily, rel: float = REL_TOL) -> CheckReport:
    """Unconditional: forward plus reversed cyclic trace sums are >= p*n."""
    mats = list(f.mats)
    fwd, rev = cyclic_traces(np.stack([mats, mats[::-1]])).tolist()
    rhs = float(f.p * f.dim)
    margin = fwd + rev - rhs
    slack = rel * (1.0 + fwd + rev + rhs)
    return CheckReport(
        "bidirectional", f.dim, f.p, fwd + rev, rhs, margin, margin >= -slack, rel,
        {"forward": fwd, "reversed": rev},
    )


def check_bidirectional_eig4(
    a1: PDMatrix, a2: PDMatrix, a3: PDMatrix, a4: PDMatrix, rel: float = REL_TOL
) -> CheckReport:
    """Four-variable eigenvalue form: the forward plus backward cyclic-sum
    matrix has every eigenvalue with real part >= 4."""
    _check_dims(a1, a2, a3, a4)
    mats = [a1.mat, a2.mat, a3.mat, a4.mat]
    total = _cyclic_matrix_sum(np.stack([mats, mats[::-1]])).sum(axis=0)
    spec = eig_general(total)
    margin = spec.min_real - 4.0
    scale = float(np.linalg.norm(total))
    slack = _slack(rel, scale)
    return CheckReport(
        "bidirectional_eig4", a1.mat.shape[0], 4, spec.min_real, 4.0, margin, margin >= -slack, rel,
        {
            "eigs": spec.values,
            "max_imag": spec.max_imag_abs,
            "effectively_real": spec.max_imag_abs <= 1e-8 * max(scale, 1.0),
        },
    )


def check_upper_bound_2ab(
    a: PDMatrix, b: PDMatrix, c: PDMatrix, rel: float = REL_TOL
) -> CheckReport:
    """Tr(A(2A+B)^{-1} + B(2B+C)^{-1} + C(2C+A)^{-1}) <= (3n-1)/2.

    Verifies the exact identity 2M + N = 3I and the lower bound Tr(N) >= 1
    that together give the upper bound.
    """
    _check_dims(a, b, c)
    n = a.mat.shape[0]
    am, bm, cm = a.mat, b.mat, c.mat
    i1, i2, i3 = _inv(2 * am + bm), _inv(2 * bm + cm), _inv(2 * cm + am)
    m = am @ i1 + bm @ i2 + cm @ i3
    nn = bm @ i1 + cm @ i2 + am @ i3
    identity_res = float(np.linalg.norm(2.0 * m + nn - 3.0 * np.eye(n)))
    tr_m, tr_n = _rtr(m), _rtr(nn)
    rhs = (3.0 * n - 1.0) / 2.0
    norms = (_norm(a), _norm(b), _norm(c))
    slack = _slack(rel, *norms)
    margin = min(rhs - tr_m, tr_n - 1.0)
    holds = margin >= -slack and identity_res <= 1e-10 * (1.0 + sum(norms))
    return CheckReport(
        "upper_bound_2ab", n, 3, tr_m, rhs, margin, holds, rel,
        {"tr_m": tr_m, "tr_n": tr_n, "identity_residual": identity_res},
    )


def build_wz_certificate(a: PDMatrix, b: PDMatrix, c: PDMatrix) -> Certificate:
    """Factor pair behind Tr(N) >= 1 in the damped upper bound.

    W = (B W_1, C W_2, A W_3) and Z = (Z_1, Z_2, Z_3) with
    W_1 = (2 B^{1/2} A B^{1/2} + B^2)^{-1/2} = Z_1^{-1} and cyclic analogues.
    Key identities: W Z* = A + B + C, Tr(ZZ*) = Tr((A+B+C)^2),
    Tr(WW*) = Tr(N).
    """
    _check_dims(a, b, c)
    pairs = [(b.mat, a.mat), (c.mat, b.mat), (a.mat, c.mat)]
    blocks = {}
    w_cols, z_cols = [], []
    for i, (outer, inner) in enumerate(pairs, start=1):
        r = _sqrtm_pd(outer)
        core = 2.0 * r @ inner @ r + outer @ outer
        core = (core + core.conj().T) / 2.0
        wi = _sqrtm_pd(core, -0.5)
        zi = _sqrtm_pd(core, 0.5)
        blocks[f"W_{i}"] = wi
        blocks[f"Z_{i}"] = zi
        w_cols.append(outer @ wi)
        z_cols.append(zi)
    blocks["W"] = np.hstack(w_cols)
    blocks["Z"] = np.hstack(z_cols)
    return Certificate("wz_pair", blocks)


def check_wz_certificate(
    a: PDMatrix, b: PDMatrix, c: PDMatrix, rel: float = REL_TOL
) -> CheckReport:
    """Verify the W/Z certificate identities and the quotient bound
    |Tr(WZ*)|^2 / Tr(ZZ*) >= 1."""
    cert = build_wz_certificate(a, b, c)
    w, z = cert.blocks["W"], cert.blocks["Z"]
    am, bm, cm = a.mat, b.mat, c.mat
    n = a.mat.shape[0]
    wz = w @ z.conj().T
    res_wz = float(np.linalg.norm(wz - (am + bm + cm)))
    tr_zz = _rtr(z @ z.conj().T)
    tr_zz_expected = _rtr(
        am @ am + bm @ bm + cm @ cm + 2.0 * (am @ bm + bm @ cm + cm @ am)
    )
    tr_ww = _rtr(w @ w.conj().T)
    nn = bm @ _inv(2 * am + bm) + cm @ _inv(2 * bm + cm) + am @ _inv(2 * cm + am)
    tr_n = _rtr(nn)
    quotient = abs(complex(np.trace(wz))) ** 2 / tr_zz
    norms = (_norm(a), _norm(b), _norm(c))
    ident_tol = 1e-9 * (1.0 + sum(norms) ** 2)
    slack = _slack(rel, *norms)
    holds = (
        res_wz <= ident_tol
        and abs(tr_zz - tr_zz_expected) <= ident_tol
        and abs(tr_ww - tr_n) <= ident_tol
        and quotient >= 1.0 - slack
    )
    return CheckReport(
        "wz_certificate", n, 3, quotient, 1.0, quotient - 1.0, holds, rel,
        {
            "wz_residual": res_wz,
            "tr_zz": tr_zz,
            "tr_zz_expected": tr_zz_expected,
            "tr_ww": tr_ww,
            "tr_n": tr_n,
        },
    )


def check_square_cycle(f: CyclicFamily, rel: float = REL_TOL) -> CheckReport:
    """Tr(A_1^2 A_2^{-1} + ... + A_p^2 A_1^{-1}) >= Tr(A_1 + ... + A_p).

    The proof's factor pair W = (A_i A_{i+1}^{-1/2}), Z = (A_{i+1}^{1/2}) is
    rebuilt and its identities W Z* = Z Z* = sum(A_i) are verified in detail.
    """
    mats = list(f.mats)
    p = f.p
    lhs = sum(_rtr(mats[i] @ mats[i] @ _inv(mats[(i + 1) % p])) for i in range(p))
    rhs = sum(_rtr(m) for m in mats)
    w_cols, z_cols = [], []
    for i in range(p):
        nxt = mats[(i + 1) % p]
        w_cols.append(mats[i] @ _sqrtm_pd(nxt, -0.5))
        z_cols.append(_sqrtm_pd(nxt))
    w, z = np.hstack(w_cols), np.hstack(z_cols)
    total = sum(mats)
    res_wz = float(np.linalg.norm(w @ z.conj().T - total))
    res_zz = float(np.linalg.norm(z @ z.conj().T - total))
    margin = lhs - rhs
    slack = rel * (1.0 + abs(lhs) + abs(rhs))
    norms = sum(float(np.linalg.norm(m)) for m in mats)
    holds = margin >= -slack and max(res_wz, res_zz) <= 1e-9 * (1.0 + norms)
    return CheckReport(
        "square_cycle", f.dim, p, lhs, rhs, margin, holds, rel,
        {"wz_residual": res_wz, "zz_residual": res_zz},
    )


def _random_rect(rng, n, field):
    x = rng.standard_normal((n, n))
    if field == "complex":
        x = x + 1j * rng.standard_normal((n, n))
    return x


def _cycle_witness(ops):
    return lambda: family_to_dict(CyclicFamily(np.stack([m.mat for m in ops])))


def run_unconditional(dims, p_values, trials, seed, rel=REL_TOL, fields=("real", "complex")) -> verify.SuiteOutcome:
    out = verify.SuiteOutcome()
    for n in dims:
        for fld in fields:
            rng = verify._rng_for(seed, 1, n, verify._FIELD_ID[fld])
            fixed = [(verify.GridRecord(name, n, 0, fld), globals()[f"check_{name}"], words.split())
                     for name, words in verify.UNCONDITIONAL_FIXED]
            for _ in range(trials):
                a, b, c, d = (random_pd(n, rng, fld) for _ in range(4))
                x, y = _random_rect(rng, n, fld), _random_rect(rng, n, fld)
                drawn = {"a": a, "b": b, "c": c, "d": d, "x": x, "y": y}
                for rec, check, words in fixed:
                    # a word of several letters is a cycle: its operands in
                    # order, and on failure the family they form
                    ops = [drawn[k] for w in words for k in w]
                    _add(rec, check(*ops, rel), _cycle_witness(ops) if len(words) == 1 else None)
            out.records.extend(rec for rec, _, _ in fixed)
        for p in p_values:
            for fld in fields:
                rng = verify._rng_for(seed, 2, n, p, verify._FIELD_ID[fld])
                recs = [(verify.GridRecord(name, n, p, fld), globals()[f"check_{name}"])
                        for name in verify.UNCONDITIONAL_FAMILY]
                for _ in range(trials):
                    fam = random_family(n, p, rng, fld)
                    wit = lambda: family_to_dict(fam)  # noqa: E731
                    for rec, check in recs:
                        _add(rec, check(fam, rel), wit)
                out.records.extend(rec for rec, _ in recs)
    return out


def run_identities(dims, p_values, trials, seed, rel=REL_TOL, fields=("real", "complex")) -> verify.SuiteOutcome:
    """Exact identities only: residuals must sit at round-off, far below 1e-10."""
    out = verify.SuiteOutcome()
    for n in dims:
        for fld in fields:
            rng = verify._rng_for(seed, 3, n, verify._FIELD_ID[fld])
            recs = {
                name: verify.GridRecord(name, n, 0, fld)
                for name in ("s4_identity", "two_ab_identity", "wz_identities", "square_cycle_identities")
            }
            ext_recs = {p: verify.GridRecord("extension_identity", n, p, fld) for p in p_values}
            for _ in range(trials):
                a, b, c, d = (random_pd(n, rng, fld) for _ in range(4))
                scale = 1.0 + sum(_norm(m) for m in (a, b, c, d))
                r = check_s4_decomposition(a, b, c, d, rel)
                _add(recs["s4_identity"], _residual_report(
                    "s4_identity", n, r.detail["identity_residual"], 1e-10 * scale, rel))
                r = check_upper_bound_2ab(a, b, c, rel)
                _add(recs["two_ab_identity"], _residual_report(
                    "two_ab_identity", n, r.detail["identity_residual"], 1e-10 * scale, rel))
                r = check_wz_certificate(a, b, c, rel)
                wz_res = max(
                    r.detail["wz_residual"],
                    abs(r.detail["tr_zz"] - r.detail["tr_zz_expected"]),
                    abs(r.detail["tr_ww"] - r.detail["tr_n"]),
                )
                _add(recs["wz_identities"], _residual_report(
                    "wz_identities", n, wz_res, 1e-10 * scale**2, rel))
                for p in p_values:
                    fam = random_family(n, p, rng, fld)
                    fam_scale = 1.0 + sum(_norm(m) for m in fam.members)
                    r = check_square_cycle(fam, rel)
                    sc_res = max(r.detail["wz_residual"], r.detail["zz_residual"])
                    _add(recs["square_cycle_identities"], _residual_report(
                        "square_cycle_identities", n, sc_res, 1e-10 * fam_scale, rel))
                    r = check_shapiro_extension(fam, rel)
                    _add(ext_recs[p], _residual_report(
                        "extension_identity", n, -r.margin, 1e-10 * (1.0 + abs(r.detail["base"]) + n), rel))
            out.records.extend(recs.values())
            out.records.extend(ext_recs.values())
    return out


def _residual_report(name, n, residual, allowed, rel) -> CheckReport:
    return CheckReport(
        name, n, 0, residual, allowed, allowed - residual, residual <= allowed, rel
    )


def run_conditional(dims, p_values, trials, seed, rel=REL_TOL, fields=("real", "complex")) -> verify.SuiteOutcome:
    out = verify.SuiteOutcome()
    for n in dims:
        for p in p_values:
            for fld in fields:
                rng = verify._rng_for(seed, 4, n, p, verify._FIELD_ID[fld])
                rec = verify.GridRecord("shapiro_trace", n, p, fld)
                for _ in range(trials):
                    fam = random_family(n, p, rng, fld)
                    rep = check_shapiro_trace(fam, rel)
                    if verify.theorem_covers(n, p):
                        _add(rec, rep, lambda: family_to_dict(fam))
                        continue
                    rec.trials += 1
                    rec.min_margin = min(rec.min_margin, rep.margin)
                    if not rep.holds:
                        out.events.append({
                            "kind": "counterexample",
                            "check": "shapiro_trace",
                            "n": n,
                            "p": p,
                            "field": fld,
                            "margin": rep.margin,
                            "family": family_to_dict(fam),
                        })
                out.records.append(rec)
    return out
