import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cyclicpd as cp
from cyclicpd.pdcore import _refined_inverse


def rng_for(seed):
    return np.random.default_rng(seed)


class TestMakePD:
    def test_identity(self):
        m = cp.make_pd(np.eye(2))
        assert m.min_eig == 1.0
        assert m.dim == 2

    def test_analytic_2x2(self):
        assert cp.make_pd([[2.0, 1.0], [1.0, 2.0]]).min_eig == pytest.approx(1.0, abs=1e-12)

    def test_indefinite_rejected(self):
        with pytest.raises(cp.NotPositiveDefinite) as exc:
            cp.make_pd([[1.0, 2.0], [2.0, 1.0]])
        assert exc.value.min_eig == pytest.approx(-1.0, abs=1e-12)

    def test_not_square(self):
        with pytest.raises(cp.NotSquare):
            cp.make_pd(np.ones((2, 3)))

    def test_not_hermitian(self):
        with pytest.raises(cp.NotHermitian):
            cp.make_pd([[1.0, 5.0], [0.0, 1.0]])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(cp.NotFinite):
            cp.make_pd([[bad, 0.0], [0.0, 1.0]])

    def test_entry_scale_bound(self):
        assert cp.make_pd(np.eye(2) * 1e100).min_eig == 1e100
        for huge in (np.diag([1e200, 4e200]), np.array([[1e200, 5e199], [0.0, 1e200]]),
                     np.diag([1.0, 1.01e100]), np.array([[1.0, 2e100j], [-2e100j, 1.0]])):
            with pytest.raises(cp.EntryTooLarge):
                cp.make_pd(huge)

    def test_pd_matrix_is_a_frozen_herm_matrix(self):
        m = cp.make_pd([[2.0, 1.0], [1.0, 2.0]])
        assert isinstance(m, cp.HermMatrix)
        assert m.mat is m.entries and not m.entries.flags.writeable
        assert m.is_real and m.norm() == np.linalg.norm(m.entries)

    @pytest.mark.parametrize("kw", [{"rel": np.nan}, {"rel": np.inf}, {"abs": np.nan}, {"abs": 0.0}])
    def test_tolerance_must_be_positive_and_finite(self, kw):
        with pytest.raises(ValueError):
            cp.Tolerance(**kw)

    def test_roundoff_asymmetry_symmetrized(self):
        a = np.array([[2.0, 1.0], [1.0 + 1e-13, 2.0]])
        m = cp.make_pd(a)
        assert np.array_equal(m.mat, m.mat.T)


class TestRandomPD:
    def test_scalar_positive(self):
        m = cp.random_pd(1, rng_for(0))
        assert m.mat[0, 0] > 0

    def test_deterministic(self):
        a = cp.random_pd(4, rng_for(42), "complex")
        b = cp.random_pd(4, rng_for(42), "complex")
        assert np.array_equal(a.mat, b.mat)

    def test_ridge_floor(self):
        m = cp.random_pd(3, rng_for(1), ridge=1e-3)
        assert m.min_eig >= 1e-3 - 1e-12

    def test_bad_params(self):
        with pytest.raises(ValueError):
            cp.random_pd(0, rng_for(0))
        with pytest.raises(ValueError):
            cp.random_pd(2, rng_for(0), ridge=-1.0)
        with pytest.raises(ValueError):
            cp.random_pd(2, rng_for(0), field="quaternion")


def sequential_rows(n, trials, members, rng, field, tail=0, cond_cap=cp.pdcore.DEFAULT_COND_CAP):
    """What random_pd_stack must equal: one random_pd (or raw square) per entry."""
    rows = []
    for _ in range(trials):
        row = [cp.random_pd(n, rng, field, cond_cap=cond_cap).mat for _ in range(members)]
        for _ in range(tail):
            x = rng.standard_normal((n, n))
            row.append(x + 1j * rng.standard_normal((n, n)) if field == "complex" else x)
        rows.append(row)
    return np.array(rows)


class TestRandomPDStack:
    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_equals_sequential_draws(self, n, field):
        for members, tail in [(5, 0), (4, 2)]:
            r1, r2 = rng_for(n), rng_for(n)
            want = sequential_rows(n, 3, members, r1, field, tail)
            got = cp.pdcore.random_pd_stack(n, 3, members, r2, field, gaussian_tail=tail)
            assert np.array_equal(got, want)
            assert r1.bit_generator.state == r2.bit_generator.state

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_rejections_fall_back_to_the_sequential_stream(self, field):
        n, cap = 3, 10.0
        # the first stacked draw holds members over the cap, so the fallback runs
        raw = cp.pdcore.random_pd_stack(n, 4, 3, rng_for(3), field, cond_cap=np.inf)
        w = np.linalg.eigvalsh(raw)
        assert (w[..., -1] / w[..., 0] > cap).any()
        r1, r2 = rng_for(3), rng_for(3)
        want = sequential_rows(n, 4, 3, r1, field, tail=1, cond_cap=cap)
        got = cp.pdcore.random_pd_stack(n, 4, 3, r2, field, cond_cap=cap, gaussian_tail=1)
        assert np.array_equal(got, want)
        assert r1.bit_generator.state == r2.bit_generator.state
        w = np.linalg.eigvalsh(got[:, :3])
        assert (w[..., -1] / w[..., 0] <= cap).all()

    def test_random_family_is_one_stacked_row(self):
        fam = cp.random_family(3, 5, rng_for(8), "complex")
        want = sequential_rows(3, 1, 5, rng_for(8), "complex")[0]
        assert np.array_equal(np.stack(fam.arrays()), want)


class TestEigHerm:
    def test_identity(self):
        s = cp.eig_herm(cp.make_pd(np.eye(3)))
        assert np.allclose(s.values, [1, 1, 1])
        assert s.residual_bound <= 1e-10

    def test_diagonal(self):
        s = cp.eig_herm(cp.make_pd(np.diag([5.0, 2.0, 7.0])))
        assert np.allclose(s.values, [2, 5, 7])

    def test_analytic_2x2(self):
        s = cp.eig_herm(cp.make_pd([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(s.values, [1, 3])


class TestEigGeneral:
    def test_rotation(self):
        s = cp.eig_general([[0.0, -1.0], [1.0, 0.0]])
        assert np.allclose(s.values, [-1j, 1j])

    def test_triangular(self):
        s = cp.eig_general([[1.0, 5.0], [0.0, 4.0]])
        assert np.allclose(s.values, [1, 4])

    def test_trace_consistency_random(self):
        rng = rng_for(7)
        for _ in range(50):
            a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            s = cp.eig_general(a)
            assert abs(s.values.sum() - np.trace(a)) <= 1e-8 * (1 + abs(np.trace(a)))

    def test_closed_form_2x2_cross_check(self):
        # quadratic-formula roots of the characteristic polynomial
        rng = rng_for(8)
        for _ in range(100):
            a = rng.standard_normal((2, 2))
            tr, det = a[0, 0] + a[1, 1], a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
            disc = complex(tr * tr - 4 * det) ** 0.5
            roots = sorted([(tr + disc) / 2, (tr - disc) / 2], key=lambda z: (z.real, z.imag))
            s = cp.eig_general(a)
            assert np.allclose(s.values, roots, atol=1e-10)


class TestEigPDProduct:
    def test_identity(self):
        i2 = cp.make_pd(np.eye(2))
        assert np.allclose(cp.eig_pd_product(i2, i2).values, [1, 1])

    def test_diagonal(self):
        p = cp.make_pd(np.diag([2.0, 1.0]))
        q = cp.make_pd(np.eye(2))
        assert np.allclose(cp.eig_pd_product(p, q).values, [1, 2])

    def test_cross_oracle_vs_general(self):
        rng = rng_for(9)
        for _ in range(100):
            p = cp.random_pd(3, rng)
            q = cp.random_pd(3, rng)
            sym = cp.eig_pd_product(p, q).values
            gen = np.sort(cp.eig_general(p.mat @ q.mat).values.real)
            assert np.allclose(sym, gen, rtol=1e-8, atol=1e-10)
            assert (sym > 0).all()

    def test_dim_mismatch(self):
        with pytest.raises(cp.DimensionMismatch):
            cp.eig_pd_product(cp.make_pd(np.eye(2)), cp.make_pd(np.eye(3)))


class TestSqrtInverse:
    def test_sqrt_identity(self):
        assert np.allclose(cp.sqrt_pd(cp.make_pd(np.eye(3))).mat, np.eye(3))

    def test_sqrt_diagonal(self):
        s = cp.sqrt_pd(cp.make_pd(np.diag([4.0, 9.0])))
        assert np.allclose(s.mat, np.diag([2.0, 3.0]))

    def test_inverse_diagonal(self):
        x = cp.inverse_pd(cp.make_pd(np.diag([2.0, 4.0])))
        assert np.allclose(x.mat, np.diag([0.5, 0.25]))

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_stacked_kernel_is_inverse_pd_per_matrix(self, field):
        rng = rng_for(11)
        stack = np.stack([cp.random_pd(3, rng, field).mat for _ in range(6)])
        x, w0 = _refined_inverse(stack)
        for m, xi, wi in zip(stack, x, w0):
            inv = cp.inverse_pd(cp.make_pd(m))
            assert np.array_equal(inv.mat, xi) and inv.min_eig == wi

    def test_inverse_residual_gate(self):
        k = np.arange(8)
        hilbert = cp.make_pd(1.0 / (k[:, None] + k + 1.0))  # condition number about 1e10
        with pytest.raises(cp.IllConditioned):
            cp.inverse_pd(hilbert)

    def test_trace_product_lower_bound(self):
        rng = rng_for(10)
        for _ in range(200):
            a = cp.random_pd(4, rng, "complex")
            x = cp.inverse_pd(a)
            assert np.trace(a.mat).real * np.trace(x.mat).real >= 16 - 1e-8


class TestLoewner:
    def test_strict(self):
        r = cp.loewner_geq(cp.make_pd(2 * np.eye(2)), cp.make_pd(np.eye(2)))
        assert r.holds and r.margin == pytest.approx(1.0, abs=1e-12)

    def test_fails(self):
        r = cp.loewner_geq(cp.make_pd(np.eye(2)), cp.make_pd(2 * np.eye(2)))
        assert not r.holds and r.margin == pytest.approx(-1.0, abs=1e-12)

    def test_equality_boundary(self):
        a = cp.make_pd([[3.0, 1.0], [1.0, 2.0]])
        r = cp.loewner_geq(a, a)
        assert r.holds and r.margin == pytest.approx(0.0, abs=1e-14)

    def test_antisymmetry(self):
        rng = rng_for(11)
        for _ in range(100):
            a = cp.random_pd(3, rng)
            b = cp.random_pd(3, rng)
            both = cp.loewner_geq(a, b).holds and cp.loewner_geq(b, a).holds
            near_equal = np.linalg.norm(a.mat - b.mat) <= 1e-8 * (1 + a.norm() + b.norm())
            assert both == near_equal


class TestSumFormulaFacts:
    def test_x_plus_xinv_eigs(self):
        rng = rng_for(12)
        for _ in range(200):
            a = cp.random_pd(3, rng)
            b = cp.random_pd(3, rng)
            from cyclicpd.pdcore import herm_powers

            (r,) = herm_powers(b.mat, -0.5)
            h = r @ a.mat @ r
            w = np.linalg.eigvalsh(h + np.linalg.inv(h))
            assert w.min() >= 2 - 1e-8


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 8),
       field=st.sampled_from(["real", "complex"]))
def test_sqrt_squares_back(seed, n, field):
    a = cp.random_pd(n, rng_for(seed), field)
    s = cp.sqrt_pd(a)
    assert np.linalg.norm(s.mat @ s.mat - a.mat) <= 1e-10 * max(1.0, a.norm())
    assert s.min_eig > 0


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 5), p=st.integers(1, 6),
       field=st.sampled_from(["real", "complex"]))
def test_family_roundtrip_bit_exact(seed, n, p, field):
    fam = cp.random_family(n, p, rng_for(seed), field)
    back = cp.family_from_dict(cp.family_to_dict(fam))
    assert back.p == fam.p
    for m1, m2 in zip(fam.members, back.members):
        assert np.array_equal(m1.mat, m2.mat)


class TestCyclicFamily:
    def test_cyclic_indexing(self):
        fam = cp.random_family(2, 3, rng_for(13))
        assert fam.member(4) is fam.member(1)
        assert fam.member(5) is fam.member(2)

    def test_mixed_dims_rejected(self):
        with pytest.raises(cp.DimensionMismatch):
            cp.CyclicFamily((cp.make_pd(np.eye(2)), cp.make_pd(np.eye(3))))
