import numpy as np
import pytest

import cyclicpd as cp
import looped_oracle as oracle
from cyclicpd import inequalities as ineq, pdcore
from cyclicpd.inequalities import _cyclic_matrix_sum, schur_complement

RNG = lambda s: np.random.default_rng(s)  # noqa: E731


def pd(entries):
    """One matrix through the construction gate."""
    return cp.validate_family([entries])[0]


def identity_family(n, p):
    return cp.CyclicFamily(cp.validate_family([np.eye(n)] * p))


def scalar_family(values):
    return oracle.diagonal_embed(values, 1)


def one(*ops):
    """Operands as one-trial stacks (1, n, n): one-matrix PD objects (``.mat``) or plain arrays."""
    return [np.asarray(getattr(m, "mat", m))[None] for m in ops]


def one_cycle(*ops):
    """Operands as one cycle, a one-trial family stack (1, k, n, n)."""
    return np.stack(one(*ops), axis=1)


def one_family(f):
    """A family as a one-trial stack (1, p, n, n)."""
    return f.mats[None]


def block_sum(f):
    """M = sum_i [[A_i^{-1}, I], [I, A_i]], the matrix of the block certificate."""
    mats = f.mats
    return ineq._psum(ineq._block_stack(mats, ineq._inv(mats)))


class TestTraceProduct:
    def test_identity(self):
        r = ineq.batch_trace_product(*one(pd(np.eye(2)), pd(np.eye(2)))).report()
        assert r.holds and r.lhs == 2.0 and r.rhs == 4.0

    def test_orthogonal_supports_boundary(self):
        a = np.diag([1.0, 0.0])
        b = np.diag([0.0, 1.0])
        r = ineq.batch_trace_product(*one(a, b)).report()
        assert r.holds and r.detail["tr_ab"] == 0.0

    def test_random(self):
        rng = RNG(0)
        for _ in range(100):
            assert ineq.batch_trace_product(*one(oracle.random_pd(4, rng), oracle.random_pd(4, rng))).report().holds


class TestWeightedCS:
    def test_equality_boundary(self):
        n = 3
        r = ineq.batch_weighted_cs(*one(np.eye(n), np.eye(n), pd(np.eye(n)))).report()
        assert r.holds
        assert r.lhs == pytest.approx(n * n, abs=1e-12)
        assert r.rhs == pytest.approx(n * n, abs=1e-12)

    def test_zero_case(self):
        r = ineq.batch_weighted_cs(*one(np.eye(2), np.zeros((2, 2)), pd(np.eye(2)))).report()
        assert r.holds and r.lhs == 0.0

    def test_random_rectangular(self):
        rng = RNG(1)
        for _ in range(100):
            x = rng.standard_normal((3, 2))
            y = rng.standard_normal((3, 2))
            assert ineq.batch_weighted_cs(*one(x, y, oracle.random_pd(3, rng))).report().holds


class TestEigIneq1:
    def test_equal_operands_boundary(self):
        a = pd([[3.0, 1.0], [1.0, 2.0]])
        r = ineq.batch_eigineq1(*one(a, a)).report()
        assert r.holds and abs(r.margin) < 1e-12

    def test_scaled_identity(self):
        r = ineq.batch_eigineq1(*one(pd(2 * np.eye(2)), pd(np.eye(2)))).report()
        assert r.holds and r.margin == pytest.approx(0.5, abs=1e-10)

    def test_cross_oracle(self):
        """The Hermitian reduction against the direct nonsymmetric spectrum of
        (A-B)(B^{-1}-A^{-1})."""
        rng = RNG(2)
        for _ in range(100):
            a, b = oracle.random_pd(3, rng).mat, oracle.random_pd(3, rng).mat
            r = ineq.batch_eigineq1(*one(a, b)).report()
            direct = pdcore.eig_general_stack((a - b) @ (np.linalg.inv(b) - np.linalg.inv(a)))
            assert r.holds
            assert direct.real.min() >= -1e-8
            assert abs(direct.real.min() - r.margin) <= 1e-8 * (1 + abs(r.margin))


class TestHarmonicLoewner:
    def test_p1_boundary(self):
        fam = cp.CyclicFamily(cp.validate_family([[[2.0, 1.0], [1.0, 3.0]]]))
        r = ineq.batch_harmonic_loewner(one_family(fam)).report()
        assert r.holds and abs(r.margin) < 1e-12

    def test_identity_equality(self):
        for p in (1, 2, 4):
            r = ineq.batch_harmonic_loewner(one_family(identity_family(2, p))).report()
            assert r.holds and abs(r.margin) < 1e-12

    def test_scalar_example(self):
        r = ineq.batch_harmonic_loewner(one_family(scalar_family([1.0, 2.0, 3.0]))).report()
        assert r.holds
        assert r.margin == pytest.approx(11 / 6 - 9 / 6, abs=1e-12)


class TestBlockCertificate:
    def test_single_identity(self):
        m = block_sum(identity_family(1, 1))
        assert np.allclose(m, [[1, 1], [1, 1]])
        assert np.allclose(np.linalg.eigvalsh(m), [0, 2])

    def test_two_identity_schur(self):
        m = block_sum(identity_family(1, 2))
        assert np.allclose(m, [[2, 2], [2, 2]])
        assert schur_complement(m, 1) == pytest.approx(0.0, abs=1e-12)

    def test_schur_matches_direct_margin(self):
        rng = RNG(3)
        for _ in range(50):
            fam = oracle.random_family(3, 4, rng)
            r = ineq.batch_block_certificate(one_family(fam)).report()
            assert r.holds
            assert r.detail["schur_gap"] <= 1e-8


@pytest.mark.parametrize("field", ["real", "complex"])
def test_loewner_and_block_stacks_are_exactly_hermitian(field):
    """batch_harmonic_loewner and batch_block_certificate hand eigvalsh their
    stacks unsymmetrized: on verify's draws (n 1..6, p 3..8) each is exactly
    Hermitian, as every member and every _inv result is."""
    for n in range(1, 7):
        for p in range(3, 9):
            fams = pdcore.random_pd_stack(n, 4, p, RNG(10 * n + p), field)
            ctx = ineq.StackContext(fams)
            blocks = ineq._block_stack(fams, ctx.inv)
            for x in (ctx.inv_total - p**2 * ctx.total_inv, blocks, ineq._psum(blocks)):
                assert (x == pdcore._ct(x)).all(), (n, p)


class TestProductSumEigs:
    def test_identity_exact(self):
        for p in (1, 3, 5):
            r = ineq.batch_product_sum_eigs(one_family(identity_family(2, p))).report()
            assert r.holds
            assert np.allclose(r.detail["eigs"], p * p, atol=1e-9)

    def test_scalar_pair(self):
        r = ineq.batch_product_sum_eigs(one_family(scalar_family([1.0, 4.0]))).report()
        assert r.holds and r.lhs == pytest.approx(6.25, abs=1e-12)


class TestNesbitt:
    def test_identity_boundary(self):
        r = ineq.batch_nesbitt(one_cycle(*(pd(np.eye(3)) for _ in range(3)))).report()
        assert r.holds and abs(r.margin) < 1e-12
        assert np.allclose(r.detail["eigs"], 1.5, atol=1e-12)

    def test_scalar_123(self):
        a, b, c = (pd([[v]]) for v in (1.0, 2.0, 3.0))
        r = ineq.batch_nesbitt(one_cycle(a, b, c)).report()
        assert r.holds and r.lhs == pytest.approx(1.7, abs=1e-12)
        assert r.margin == pytest.approx(0.2, abs=1e-12)

    def test_construction_paths_agree(self):
        """The spectrum from the sum identity against that of M built directly."""
        rng = RNG(4)
        for _ in range(100):
            abc = one_cycle(*(oracle.random_pd(3, rng) for _ in range(3)))
            r = ineq.batch_nesbitt(abc).report()
            a, b, c = abc[0]
            m = a @ np.linalg.inv(b + c) + b @ np.linalg.inv(c + a) + c @ np.linalg.inv(a + b)
            direct = pdcore.eig_general_stack(m)
            assert r.holds and abs(direct.imag).max() <= 1e-9
            assert np.allclose(direct.real, r.detail["eigs"], rtol=0, atol=1e-9)


class TestNesbittK:
    def test_identity_exact(self):
        for k in (2, 3, 5, 8):
            r = ineq.batch_nesbitt_k(one_family(identity_family(2, k))).report()
            assert r.holds
            assert np.allclose(r.detail["eigs"], k / (k - 1), atol=1e-10)

    def test_k3_matches_nesbitt(self):
        rng = RNG(5)
        trip = [oracle.random_pd(2, rng) for _ in range(3)]
        r1 = ineq.batch_nesbitt(one_cycle(*trip)).report()
        r2 = ineq.batch_nesbitt_k(one_family(cp.CyclicFamily(np.stack([m.mat for m in trip])))).report()
        assert r1.margin == pytest.approx(r2.margin, abs=1e-9)

    def test_scalar_k4(self):
        r = ineq.batch_nesbitt_k(one_family(scalar_family([1.0, 1.0, 1.0, 2.0]))).report()
        assert r.lhs == pytest.approx(17 / 12, abs=1e-12)
        assert r.margin == pytest.approx(17 / 12 - 4 / 3, abs=1e-12)

    def test_k1_rejected(self):
        with pytest.raises(cp.SingularDenominator):
            ineq.batch_nesbitt_k(one_family(identity_family(2, 1))).report()


# Looped references: the per-term evaluations the stacked kernel replaced.

def ref_refined_inverse(m):
    """One matrix's inverse with one Newton step and the residual gate, as
    inverse_pd computed it before the stacked kernel."""
    eye = np.eye(m.shape[0])
    x = np.linalg.inv(m)
    x = x @ (2.0 * eye - m @ x)
    x = (x + x.conj().T) / 2.0
    residual = float(np.linalg.norm(m @ x - eye))
    assert residual <= 1e-10 * max(1.0, float(np.linalg.norm(m)) * float(np.linalg.norm(x)))
    return x


def ref_cyclic_sum_trace(f, refine=False):
    """F_p of one family: the looped kernel of ``cyclic_sum_trace`` (each term
    by the closed form for real n = 2, 3 where the guard admits its S_i, else
    by one solve), or with ``refine`` that of ``_refined_cyclic_sum_trace``
    (one refined inverse per member)."""
    mats = list(f.mats)
    if not refine:
        return oracle.looped_cyclic_sum(mats)
    p = f.p
    total = 0.0
    for i in range(p):
        x = ref_refined_inverse(oracle.closure_pd(mats[(i + 1) % p] + mats[(i + 2) % p]).mat)
        total += float(np.trace(mats[i] @ x).real)
    return total


def ref_inv(a):
    x = np.linalg.inv(a)
    return (x + x.conj().T) / 2.0


def ref_cyclic_matrix_sum(mats):
    p = len(mats)
    return sum(mats[i] @ ref_inv(mats[(i + 1) % p] + mats[(i + 2) % p]) for i in range(p))


class TestCyclicKernelOracle:
    @staticmethod
    def assert_family_matches_looped(fam):
        ref = ref_cyclic_sum_trace(fam)
        assert cp.cyclic_sum_trace(fam) == ref
        assert ineq._refined_cyclic_sum_trace(fam) == ref_cyclic_sum_trace(fam, refine=True)
        r = ineq.batch_bidirectional(one_family(fam)).report()
        assert r.detail["forward"] == ref
        assert r.detail["reversed"] == ref_cyclic_sum_trace(cp.CyclicFamily(fam.mats[::-1]))
        got = _cyclic_matrix_sum(fam.mats)
        want = ref_cyclic_matrix_sum(list(fam.mats))
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("p", [3, 5, 8, 14])
    def test_stacked_matches_looped(self, p, field):
        rng = RNG(100 * p + len(field))
        for n in range(1, 7):
            for _ in range(3):
                self.assert_family_matches_looped(oracle.random_family(n, p, rng, field))

    @pytest.mark.parametrize("p", [3, 5, 14, 23])
    def test_scalar_families_at_extreme_scales(self, p):
        rng = RNG(7 * p)
        for _ in range(20):
            self.assert_family_matches_looped(oracle.diagonal_embed(np.exp(rng.uniform(-8.0, 8.0, p)), 1))


def same_bits(got, want) -> bool:
    """Same dtype, shape and bytes: equality that also tells -0.0 from +0.0."""
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def spread_stack(rng, shape, field):
    """Entries of random sign with magnitudes spread over e^-8..e^8."""
    x = rng.standard_normal(shape) * np.exp(rng.uniform(-8.0, 8.0, shape))
    if field == "complex":
        x = x + 1j * rng.standard_normal(shape) * np.exp(rng.uniform(-8.0, 8.0, shape))
    return x


LEADING_AXES = [(), (4,), (2, 3)]  # none, restarts or trials, and both


class TestKernelHelpersOracle:
    """The index gather and the cumulative sum against the np.roll and
    Python-loop code they replaced: the same bits and, for the shifts, the
    same memory layout (a matmul on other strides can round differently)."""

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("p", [3, 5, 14, 23])
    def test_shifts_and_denominators_match_roll(self, p, field):
        rng = RNG(p + len(field))
        for n in (1, 2, 3):
            for lead in LEADING_AXES:
                mats = spread_stack(rng, (*lead, p, n, n), field)
                for k in (-2, -1, 1, 2):
                    got, want = ineq.cyclic_shift(mats, k), oracle.roll_shift(mats, k)
                    assert same_bits(got, want) and got.strides == want.strides
                got, want = ineq.cyclic_denominators(mats), oracle.roll_denominators(mats)
                assert same_bits(got, want) and got.strides == want.strides

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("p", [3, 5, 14, 23])
    def test_sum_over_p_matches_loop(self, p, field):
        rng = RNG(10 * p + len(field))
        for n in (1, 2, 3):
            for lead in LEADING_AXES:
                # the member axis moved last, as _psum sums matrices
                terms = np.moveaxis(spread_stack(rng, (*lead, p, n, n), field), -3, -1)
                assert same_bits(ineq._sum_over_p(terms), oracle.looped_sum_over_p(terms))
        terms = spread_stack(rng, (p,), field)
        got, want = ineq._sum_over_p(terms), oracle.looped_sum_over_p(terms)
        assert type(got) is type(want) and same_bits(got, want)

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("p", [3, 5, 14, 23])
    def test_psum_matches_loop(self, p, field):
        rng = RNG(20 * p + len(field))
        for n in (1, 2, 3):
            for lead in LEADING_AXES:
                mats = spread_stack(rng, (*lead, p, n, n), field)
                want = oracle.looped_sum_over_p(np.moveaxis(mats, -3, -1))
                assert same_bits(ineq._psum(mats), want)
        negative_zeros = np.full((2, p, 2, 2), -0.0 - 0.0j)
        got = ineq._psum(negative_zeros)
        assert same_bits(got, oracle.looped_sum_over_p(np.moveaxis(negative_zeros, -3, -1)))
        assert not np.signbit(got.real).any() and not np.signbit(got.imag).any()

    @pytest.mark.parametrize("p", [3, 5, 14, 23])
    def test_sum_over_p_signed_zeros(self, p):
        cases = [
            np.full(p, -0.0),
            np.full((2, p), -0.0 - 0.0j),
            np.array([-0.0] * (p - 1) + [0.0]),
            np.array([1.0, -1.0] + [-0.0] * (p - 2)),
            np.array([-0.0] * (p - 1) + [-1.0]),
        ]
        for terms in cases:
            got = ineq._sum_over_p(terms)
            assert same_bits(got, oracle.looped_sum_over_p(terms))
        for all_negative_zero in cases[:2]:
            got = np.asarray(ineq._sum_over_p(all_negative_zero))
            assert not np.signbit(got.real).any() and not np.signbit(got.imag).any()


class TestScalarDivisionPath:
    """At real n = 1 ``cyclic_traces`` divides and ``_inv`` (so the gradient's
    ``cyclic_inverses``) takes 1.0 / S. That is the batched-solve result only
    because a 1x1 LAPACK solve and inverse round as one division does; this
    holds on the shipped BLAS, and a BLAS where it does not must fail here."""

    @pytest.mark.parametrize("shape", [(4096, 1, 1), (8, 14, 1, 1), (3, 5, 23, 1, 1)])
    def test_1x1_solve_and_inv_are_division(self, shape):
        rng = RNG(len(shape) + shape[-3])
        a = np.exp(rng.uniform(-8.0, 8.0, shape))
        s = np.exp(rng.uniform(-8.0, 8.0, shape))
        assert same_bits(np.linalg.solve(s, a), a / s)
        assert same_bits(np.linalg.inv(s), 1.0 / s)

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("p", [3, 14, 23])
    def test_cyclic_terms_match_batched_solve(self, p, field):
        # the terms of cyclic_traces: a division for real 1x1 blocks, one
        # batched solve for complex ones
        rng = RNG(3 * p + len(field))
        for lead in LEADING_AXES:
            mats = np.exp(rng.uniform(-8.0, 8.0, (*lead, p, 1, 1))).astype(
                complex if field == "complex" else float)
            dens = oracle.roll_denominators(mats)
            terms = np.trace(np.linalg.solve(dens, mats), axis1=-2, axis2=-1).real
            assert same_bits(ineq.cyclic_traces(mats), ineq._sum_over_p(terms))
            x = np.linalg.inv(dens)
            assert same_bits(ineq.cyclic_inverses(mats), (x + x.conj()) / 2.0 if field == "complex" else x)


class TestOneInversionRule:
    """``_inv`` inverts every matrix the program inverts, one rule per matrix:
    its result and ``cyclic_inverses``' are exactly Hermitian whichever path
    a matrix takes (division, closed form, LAPACK for refused, complex and
    n >= 4 blocks), and each matrix's inverse is the looped oracle's."""

    @staticmethod
    def families(n, field, rng):
        """Eight (5, n, n) families. In the last four every member
        L L* + 1e-10 I shares one null direction of L, so their denominators
        S_i have an eigenvalue near 2e-10, which the guard refuses."""
        fams = pdcore.random_pd_stack(n, 8, 5, rng, field)
        factors = pdcore._gaussian(rng, (4, 5), n, field)
        factors[..., -1, :] = 0.0
        factors = np.linalg.qr(rng.standard_normal((4, 1, n, n)))[0] @ factors
        fams[4:] = factors @ np.swapaxes(factors, -1, -2).conj() + 1e-10 * np.eye(n)
        return (fams + np.swapaxes(fams, -1, -2).conj()) / 2.0

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_results_are_exactly_hermitian(self, n, field):
        fams = self.families(n, field, RNG(50 + 2 * n + len(field)))
        dens = ineq.cyclic_denominators(fams)
        if n in (2, 3):
            ratio = np.linalg.det(dens).real / np.prod(np.diagonal(dens, axis1=-2, axis2=-1).real, axis=-1)
            assert (ratio[4:] < 1e-6).all() and (ratio[:4] > ineq.MIN_DET_RATIO).any()
        for stack in (fams, dens):
            x = ineq._inv(stack)
            assert np.array_equal(x, np.swapaxes(x, -1, -2).conj())  # bit for bit, but for the sign of 0
            for got, a in zip(x.reshape(-1, n, n), stack.reshape(-1, n, n)):
                assert same_bits(got, oracle._inv(a))
        x = ineq.cyclic_inverses(fams)
        assert same_bits(x, ineq._inv(dens)) and np.array_equal(x, np.swapaxes(x, -1, -2).conj())


class TestCyclicSumTrace:
    def test_identity(self):
        for n, p in [(1, 4), (2, 3), (3, 6)]:
            assert cp.cyclic_sum_trace(identity_family(n, p)) == pytest.approx(p * n / 2, abs=1e-12)

    def test_fixture_value(self):
        assert cp.cyclic_sum_trace(cp.counterexample_family()) == pytest.approx(5.2786, abs=1e-3)

    def test_scalar_equivalence(self):
        rng = RNG(6)
        for p in range(3, 10):
            s = rng.uniform(0.1, 10.0, p)
            fam = oracle.diagonal_embed(s, 1)
            assert cp.cyclic_sum_trace(fam) == pytest.approx(
                cp.scalar_cyclic_sum(s), rel=1e-12)

    def test_p_too_small(self):
        with pytest.raises(ValueError):
            cp.cyclic_sum_trace(identity_family(2, 2))


class TestShapiroTrace:
    def test_identity_boundary(self):
        r = ineq.batch_shapiro_trace(one_family(identity_family(2, 5))).report()
        assert r.holds and abs(r.margin) < 1e-12

    def test_fixture(self):
        r = ineq.batch_shapiro_trace(one_family(cp.counterexample_family())).report()
        assert r.holds and r.lhs == pytest.approx(5.2786, abs=1e-3)


class TestS4Decomposition:
    def test_identity_boundaries(self):
        r = ineq.batch_s4_decomposition(one_cycle(*(pd(np.eye(3)) for _ in range(4)))).report()
        assert r.holds
        assert r.detail["tr_m"] == pytest.approx(6.0, abs=1e-12)
        assert abs(r.detail["margin_m"]) < 1e-12
        assert abs(r.detail["margin_m_plus_p"]) < 1e-12

    def test_fixture(self):
        r = ineq.batch_s4_decomposition(one_cycle(*cp.counterexample_family().mats)).report()
        assert r.holds
        assert r.detail["tr_m"] == pytest.approx(5.2786, abs=1e-3)
        assert r.detail["identity_residual"] <= 1e-12

    def test_random(self):
        rng = RNG(7)
        for _ in range(100):
            r = ineq.batch_s4_decomposition(one_cycle(*(oracle.random_pd(3, rng) for _ in range(4)))).report()
            assert r.holds


class TestShapiroExtension:
    def test_identity(self):
        r = ineq.batch_shapiro_extension(one_family(identity_family(2, 3))).report()
        assert r.holds
        assert r.lhs == pytest.approx(5 * 2 / 2, abs=1e-12)

    def test_scalar_both_sides(self):
        s3 = cp.scalar_cyclic_sum([1, 2, 3])
        s5 = cp.scalar_cyclic_sum([1, 2, 3, 1, 2])
        assert s5 == pytest.approx(s3 + 1, abs=1e-12)
        r = ineq.batch_shapiro_extension(one_family(scalar_family([1.0, 2.0, 3.0]))).report()
        assert r.holds and r.lhs == pytest.approx(s5, abs=1e-12)

    def test_fixture_extended(self):
        r = ineq.batch_shapiro_extension(one_family(cp.counterexample_family())).report()
        assert r.holds
        assert r.lhs == pytest.approx(5.2786 + 2, abs=1e-3)


class TestBidirectional:
    def test_identity_boundary(self):
        r = ineq.batch_bidirectional(one_family(identity_family(2, 5))).report()
        assert r.holds and abs(r.margin) < 1e-12

    def test_fixture(self):
        r = ineq.batch_bidirectional(one_family(cp.counterexample_family())).report()
        assert r.holds
        assert r.detail["forward"] == pytest.approx(5.2786, abs=1e-3)
        assert r.lhs >= 8.0

    def test_holds_even_on_scalar_counterexample_regime(self):
        # large-spread scalars at p=14, where the one-directional bound can fail
        rng = RNG(8)
        for _ in range(20):
            s = np.exp(rng.uniform(-3, 3, 14))
            assert ineq.batch_bidirectional(one_family(oracle.diagonal_embed(s, 1))).report().holds


class TestBidirectionalEig4:
    def test_identity_exact(self):
        r = ineq.batch_bidirectional_eig4(one_cycle(*(pd(np.eye(2)) for _ in range(4)))).report()
        assert r.holds and abs(r.margin) < 1e-10

    def test_scalars(self):
        s = [1.0, 2.0, 3.0, 4.0]
        fwd = cp.scalar_cyclic_sum(s)
        bwd = cp.scalar_cyclic_sum(s[::-1])
        r = ineq.batch_bidirectional_eig4(one_cycle(*(pd([[v]]) for v in s))).report()
        assert r.holds
        assert r.lhs == pytest.approx(fwd + bwd, abs=1e-12)

    def test_fixture(self):
        r = ineq.batch_bidirectional_eig4(one_cycle(*cp.counterexample_family().mats)).report()
        assert r.holds and r.lhs >= 4.0


class TestCSTrace:
    def test_equality(self):
        a = RNG(9).standard_normal((2, 3))
        r = ineq.batch_cs_trace(*one(a, a)).report()
        assert r.holds and r.margin == pytest.approx(0.0, abs=1e-9)

    def test_zero(self):
        r = ineq.batch_cs_trace(*one(np.ones((2, 2)), np.zeros((2, 2)))).report()
        assert r.holds and r.lhs == 0.0

    def test_random_complex(self):
        rng = RNG(10)
        for _ in range(100):
            a = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
            b = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
            assert ineq.batch_cs_trace(*one(a, b)).report().holds


class TestUpperBound2AB:
    def test_scalar_double_boundary(self):
        r = ineq.batch_upper_bound_2ab(one_cycle(*(pd([[1.0]]) for _ in range(3)))).report()
        assert r.holds
        assert r.detail["tr_m"] == pytest.approx(1.0, abs=1e-12)
        assert r.detail["tr_n"] == pytest.approx(1.0, abs=1e-12)

    def test_identity_2x2(self):
        r = ineq.batch_upper_bound_2ab(one_cycle(*(pd(np.eye(2)) for _ in range(3)))).report()
        assert r.holds
        assert r.detail["tr_m"] == pytest.approx(2.0, abs=1e-12)
        assert r.rhs == 2.5

    def test_random(self):
        rng = RNG(11)
        for _ in range(100):
            r = ineq.batch_upper_bound_2ab(one_cycle(*(oracle.random_pd(3, rng) for _ in range(3)))).report()
            assert r.holds


class TestWZCertificate:
    def test_scalar_identity(self):
        outer, wi, zi = ineq._wz_blocks(np.stack([pd([[1.0]])] * 3))
        assert wi[0][0, 0] == pytest.approx(3 ** -0.5, abs=1e-12)
        w, z = ineq._hstack(outer @ wi), ineq._hstack(zi)
        assert (w @ z.T)[0, 0] == pytest.approx(3.0, abs=1e-12)
        assert (z @ z.T)[0, 0] == pytest.approx(9.0, abs=1e-12)
        r = ineq.batch_wz_certificate(one_cycle(*(pd([[1.0]]) for _ in range(3)))).report()
        assert r.holds and r.lhs == pytest.approx(1.0, abs=1e-12)

    def test_identity_2x2_quotient(self):
        r = ineq.batch_wz_certificate(one_cycle(*(pd(np.eye(2)) for _ in range(3)))).report()
        assert r.holds
        assert r.detail["tr_zz"] == pytest.approx(18.0, abs=1e-12)
        assert r.lhs == pytest.approx(2.0, abs=1e-12)

    def test_random_identities(self):
        rng = RNG(12)
        for _ in range(100):
            r = ineq.batch_wz_certificate(one_cycle(*(oracle.random_pd(3, rng) for _ in range(3)))).report()
            assert r.holds
            assert r.detail["wz_residual"] <= 1e-9 * 100


class TestSquareCycle:
    def test_identity_boundary(self):
        r = ineq.batch_square_cycle(one_family(identity_family(3, 4))).report()
        assert r.holds and abs(r.margin) < 1e-10

    def test_scalar_pair(self):
        r = ineq.batch_square_cycle(one_family(scalar_family([1.0, 2.0]))).report()
        assert r.holds
        assert r.lhs == pytest.approx(4.5, abs=1e-12)
        assert r.rhs == pytest.approx(3.0, abs=1e-12)

    def test_random_with_certificate(self):
        rng = RNG(13)
        for _ in range(50):
            r = ineq.batch_square_cycle(one_family(oracle.random_family(3, 5, rng))).report()
            assert r.holds
            assert max(r.detail["wz_residual"], r.detail["zz_residual"]) <= 1e-8


def rotation(n, theta):
    """An orthogonal n x n matrix: a plane rotation by theta in the first two coordinates."""
    r = np.eye(n)
    r[:2, :2] = [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    return r


class TestCertificateGates:
    """Each identity gate of a certificate fails the check on its own: the
    patched construction breaks one identity by far more than its bound, keeps
    every other identity within its bound, and leaves the margin holding."""

    def test_schur_gap(self, monkeypatch):
        fam = oracle.random_family(3, 4, RNG(30))
        base = ineq.batch_block_certificate(one_family(fam)).report()
        assert base.holds
        real = ineq.schur_complement
        monkeypatch.setattr(ineq, "schur_complement", lambda m, n: real(m, n) + 1e-3)
        r = ineq.batch_block_certificate(one_family(fam)).report()
        assert r.margin == base.margin  # the blocks are singular, so this is 0 up to rounding
        assert r.detail["schur_gap"] > 1e-8 * (1.0 + np.linalg.norm(block_sum(fam)))
        assert not r.holds

    # Z_i -> c Z_i R and W_i -> W_i / c, N -> k N: a rotation R moves W Z* alone,
    # c moves Tr(Z Z*) and Tr(W W*) (k = c^-2 puts Tr(N) back on Tr(W W*)), k
    # alone moves Tr(N).
    WZ_PATCHES = {
        "wz_residual": (1.0, rotation(3, 0.1), 1.0),
        "tr_zz": (1.01, np.eye(3), 1.01**-2),
        "tr_ww": (1.0, np.eye(3), 1.01),
    }

    @pytest.mark.parametrize("broken", sorted(WZ_PATCHES))
    def test_wz_identities(self, monkeypatch, broken):
        rng = RNG(31)
        ops = [oracle.random_pd(3, rng) for _ in range(3)]
        assert ineq.batch_wz_certificate(one_cycle(*ops)).report().margin > 0.1
        c, turn, k = self.WZ_PATCHES[broken]
        blocks, sums = ineq._wz_blocks, ineq._two_ab_sums

        def wz_blocks(*mats):
            outer, wi, zi = blocks(*mats)
            return outer, wi / c, c * zi @ turn

        def two_ab_sums(*mats):
            m, nn = sums(*mats)
            return m, k * nn

        monkeypatch.setattr(ineq, "_wz_blocks", wz_blocks)
        monkeypatch.setattr(ineq, "_two_ab_sums", two_ab_sums)
        r = ineq.batch_wz_certificate(one_cycle(*ops)).report()
        d = r.detail
        gaps = {
            "wz_residual": d["wz_residual"],
            "tr_zz": abs(d["tr_zz"] - d["tr_zz_expected"]),
            "tr_ww": abs(d["tr_ww"] - d["tr_n"]),
        }
        bound = 1e-9 * (1.0 + sum(np.linalg.norm(m.mat) for m in ops)) ** 2
        assert gaps.pop(broken) > 100 * bound
        assert all(g <= bound for g in gaps.values())
        assert r.margin > 0
        assert not r.holds

    @pytest.mark.parametrize("broken", ["wz_residual", "zz_residual"])
    def test_square_cycle_residuals(self, monkeypatch, broken):
        fam = oracle.random_family(3, 5, RNG(32))
        base = ineq.batch_square_cycle(one_family(fam)).report()
        assert base.holds
        powers = ineq.herm_powers

        def herm_powers(a, *qs):
            root_inv, root = powers(a, *qs)
            if broken == "wz_residual":
                return root_inv, root @ rotation(3, 0.1)  # Z Z* stays, W Z* moves
            return root_inv / 1.01, 1.01 * root  # W Z* stays, Z Z* moves

        monkeypatch.setattr(ineq, "herm_powers", herm_powers)
        r = ineq.batch_square_cycle(one_family(fam)).report()
        other = ({"wz_residual", "zz_residual"} - {broken}).pop()
        bound = 1e-9 * (1.0 + sum(np.linalg.norm(m) for m in fam.mats))
        assert r.detail[broken] > 100 * bound and r.detail[other] <= bound
        assert r.margin == base.margin > 0
        assert not r.holds


class TestCounterexampleReproduction:
    def test_eigenvalue_pair(self):
        r = cp.reproduce_counterexample()
        eigs = np.asarray(r.detail["eigs"])
        assert np.allclose(eigs, [2.6393 - 0.1871j, 2.6393 + 0.1871j], atol=1e-3)

    def test_trace(self):
        r = cp.reproduce_counterexample()
        assert r.detail["trace"] == pytest.approx(5.2786, abs=1e-3)
        assert r.detail["trace"] >= 4.0

    def test_nonreal(self):
        r = cp.reproduce_counterexample()
        assert r.detail["max_imag"] == pytest.approx(0.1871, abs=1e-3)
        assert r.detail["eigenvalue_form_fails"]


class TestReportSerialization:
    def test_to_dict_schema(self):
        r = ineq.batch_nesbitt(one_cycle(*(pd(np.eye(2)) for _ in range(3)))).report()
        d = r.to_dict()
        assert set(d) == {"check", "n", "p", "holds", "margin", "lhs", "rhs", "detail", "tol"}
        assert d["tol"] == {"rel": 1e-9, "abs": 1e-12}
        import json

        json.dumps(d)
