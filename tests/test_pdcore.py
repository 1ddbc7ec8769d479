import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cyclicpd as cp
import looped_oracle as oracle
from cyclicpd.cli import main
from cyclicpd.inequalities import _cyclic_matrix_sum
from cyclicpd.pdcore import _refined_inverse, eig_general_stack, herm_powers, pd_product_eigvals, random_pd_stack


def rng_for(seed):
    return np.random.default_rng(seed)


def pd(entries):
    """One matrix through the construction gate."""
    return cp.validate_family([entries])[0]


def min_eig(a):
    return float(np.linalg.eigvalsh(a)[0])


class TestMakePD:
    """The construction gate, ``validate_family``, on one-member stacks; how it
    orders faults over several members is pinned by eval's error lines in
    test_cli.py."""

    def test_identity(self):
        mats = cp.validate_family([np.eye(2)])
        assert mats.shape == (1, 2, 2) and min_eig(mats[0]) == 1.0

    def test_analytic_2x2(self):
        assert min_eig(pd([[2.0, 1.0], [1.0, 2.0]])) == pytest.approx(1.0, abs=1e-12)

    def test_indefinite_rejected(self):
        with pytest.raises(cp.NotPositiveDefinite) as exc:
            pd([[1.0, 2.0], [2.0, 1.0]])
        assert exc.value.min_eig == pytest.approx(-1.0, abs=1e-12)

    def test_not_square(self):
        with pytest.raises(cp.NotSquare):
            pd(np.ones((2, 3)))
        with pytest.raises(cp.NotSquare):
            cp.validate_family(np.eye(2))  # one matrix, not a stack

    def test_not_hermitian(self):
        with pytest.raises(cp.NotHermitian):
            pd([[1.0, 5.0], [0.0, 1.0]])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(cp.NotFinite):
            pd([[bad, 0.0], [0.0, 1.0]])

    def test_entry_scale_bound(self):
        assert min_eig(pd(np.eye(2) * 1e100)) == 1e100
        for huge in (np.diag([1e200, 4e200]), np.array([[1e200, 5e199], [0.0, 1e200]]),
                     np.diag([1.0, 1.01e100]), np.array([[1.0, 2e100j], [-2e100j, 1.0]])):
            with pytest.raises(cp.EntryTooLarge):
                pd(huge)

    def test_validated_stack_is_a_read_only_copy(self):
        entries = np.array([[[2.0, 1.0], [1.0, 2.0]]])
        mats = cp.validate_family(entries)
        assert not mats.flags.writeable and not np.shares_memory(mats, entries)
        fam = cp.CyclicFamily(mats)
        assert (fam.p, fam.dim) == (1, 2)
        assert fam.members[0].mat.base is mats and not fam.members[0].mat.flags.writeable

    def test_roundoff_asymmetry_symmetrized(self):
        m = pd(np.array([[2.0, 1.0], [1.0 + 1e-13, 2.0]]))
        assert np.array_equal(m, m.T)


class TestValidateFamily:
    def test_complex_stack_with_real_entries_comes_back_real(self):
        assert cp.validate_family(np.eye(2)[None] + 0j).dtype == np.float64
        mixed = cp.validate_family([np.eye(2), [[1.0, 0.5j], [-0.5j, 1.0]]])
        assert mixed.dtype == np.complex128

    def test_writer_holds_families_to_the_positivity_floor(self):
        with pytest.raises(cp.NotPositiveDefinite):
            cp.family_to_dict(cp.CyclicFamily(np.array([np.eye(2), -np.eye(2)])))


class TestRandomPD:
    def test_scalar_positive(self):
        assert random_pd_stack(1, 1, 1, rng_for(0))[0, 0, 0, 0] > 0

    def test_deterministic(self):
        a = random_pd_stack(4, 2, 3, rng_for(42), "complex")
        b = random_pd_stack(4, 2, 3, rng_for(42), "complex")
        assert np.array_equal(a, b)

    def test_ridge_floor(self):
        mats = random_pd_stack(3, 4, 5, rng_for(1))
        assert np.linalg.eigvalsh(mats)[..., 0].min() >= cp.pdcore.DEFAULT_RIDGE - 1e-12

    def test_bad_params(self):
        with pytest.raises(ValueError):
            random_pd_stack(0, 1, 1, rng_for(0))
        with pytest.raises(ValueError):
            random_pd_stack(2, 1, 1, rng_for(0), field="quaternion")


def sequential_rows(n, trials, members, rng, field, tail=0):
    """What random_pd_stack must equal: one oracle random_pd (or raw square) per entry."""
    rows = []
    for _ in range(trials):
        row = [oracle.random_pd(n, rng, field).mat for _ in range(members)]
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
            got = random_pd_stack(n, 3, members, r2, field, gaussian_tail=tail)
            assert np.array_equal(got, want)
            assert r1.bit_generator.state == r2.bit_generator.state

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_condition_numbers_stay_far_under_the_old_cap(self, field):
        """The sampler keeps no condition cap: at verify's shapes its members
        stay 100x under the 1e8 cap it once enforced, so the sequential
        oracle's redraw never runs there."""
        for n in range(1, 7):
            w = np.linalg.eigvalsh(random_pd_stack(n, 512, 8, rng_for(n), field))
            assert (w[..., -1] / w[..., 0]).max() < 1e6, n

    def test_sample_families_are_stacked_rows(self, tmp_path):
        out = tmp_path / "s.json"
        assert main(["sample", "--n", "3", "--p", "5", "--count", "2", "--field", "complex",
                     "--seed", "8", "--out", str(out)]) == 0
        docs = json.loads(out.read_text())
        want = sequential_rows(3, 2, 5, np.random.default_rng(np.random.SeedSequence(entropy=8)), "complex")
        for doc, row in zip(docs, want):
            assert np.array_equal(cp.family_from_dict(doc).mats, row)


def general_eigs(a):
    """The sorted eigenvalues of one square matrix, from the stacked solver."""
    return eig_general_stack(np.asarray(a))


def same_bits(got, want) -> bool:
    """Same dtype, shape and bytes: equality that also tells -0.0 from +0.0."""
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def sorted_eig(a):
    """Eigenvalues of each matrix from np.linalg.eig, sorted by (Re, Im)."""
    w = np.linalg.eig(a)[0]
    return np.take_along_axis(w, np.lexsort((w.imag, w.real)), axis=-1)


class TestEigGeneral:
    def test_rotation(self):
        assert np.allclose(general_eigs([[0.0, -1.0], [1.0, 0.0]]), [-1j, 1j])

    def test_triangular(self):
        assert np.allclose(general_eigs([[1.0, 5.0], [0.0, 4.0]]), [1, 4])

    def test_trace_consistency_random(self):
        rng = rng_for(7)
        for _ in range(50):
            a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            w = general_eigs(a)
            assert abs(w.sum() - np.trace(a)) <= 1e-8 * (1 + abs(np.trace(a)))

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_eigenvalues_alone_equal_eig(self, n, field):
        """eigvals gives the eigenvalues that eig computes beside its vectors."""
        rng = rng_for(20 + n)
        a = rng.standard_normal((50, n, n))
        if field == "complex":
            a = a + 1j * rng.standard_normal((50, n, n))
        assert same_bits(eig_general_stack(a), sorted_eig(a))

    def test_eigenvalues_alone_equal_eig_on_the_fixture(self):
        m = _cyclic_matrix_sum(cp.counterexample_family().mats)
        assert same_bits(eig_general_stack(m), sorted_eig(m))

    def test_closed_form_2x2_cross_check(self):
        # quadratic-formula roots of the characteristic polynomial
        rng = rng_for(8)
        for _ in range(100):
            a = rng.standard_normal((2, 2))
            tr, det = a[0, 0] + a[1, 1], a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
            disc = complex(tr * tr - 4 * det) ** 0.5
            roots = sorted([(tr + disc) / 2, (tr - disc) / 2], key=lambda z: (z.real, z.imag))
            assert np.allclose(general_eigs(a), roots, atol=1e-10)


class TestEigPDProduct:
    def test_identity(self):
        i2 = pd(np.eye(2))
        assert np.allclose(pd_product_eigvals(i2, i2), [1, 1])

    def test_diagonal(self):
        assert np.allclose(pd_product_eigvals(pd(np.eye(2)), pd(np.diag([2.0, 1.0]))), [1, 2])

    def test_cross_oracle_vs_general(self):
        rng = rng_for(9)
        for _ in range(100):
            p = oracle.random_pd(3, rng).mat
            q = oracle.random_pd(3, rng).mat
            (r,) = herm_powers(q, 0.5)
            h = r @ p @ r
            assert np.linalg.norm(h - h.conj().T) <= 1e-12 * np.linalg.norm(h)
            sym = pd_product_eigvals(q, p)
            gen = np.sort(general_eigs(p @ q).real)
            assert np.allclose(sym, gen, rtol=1e-8, atol=1e-10)
            assert (sym > 0).all()


class TestSqrtInverse:
    def test_sqrt_identity(self):
        assert np.allclose(herm_powers(np.eye(3), 0.5)[0], np.eye(3))

    def test_sqrt_diagonal(self):
        (s,) = herm_powers(pd(np.diag([4.0, 9.0])), 0.5)
        assert np.allclose(s, np.diag([2.0, 3.0]))

    def test_inverse_diagonal(self):
        x, w0 = _refined_inverse(pd(np.diag([2.0, 4.0])))
        assert np.allclose(x, np.diag([0.5, 0.25])) and w0 == pytest.approx(0.25)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_stacked_kernel_is_inverse_pd_per_matrix(self, field):
        """The stacked kernel gives each matrix what it gives that matrix alone,
        as the removed one-matrix ``inverse_pd`` did."""
        rng = rng_for(11)
        stack = np.stack([oracle.random_pd(3, rng, field).mat for _ in range(6)])
        x, w0 = _refined_inverse(stack)
        for m, xi, wi in zip(stack, x, w0):
            x1, w1 = _refined_inverse(m)
            assert np.array_equal(x1, xi) and w1 == wi

    def test_inverse_residual_gate(self):
        k = np.arange(8)
        hilbert = pd(1.0 / (k[:, None] + k + 1.0))  # condition number about 1e10
        with pytest.raises(cp.IllConditioned):
            _refined_inverse(hilbert)

    def test_trace_product_lower_bound(self):
        rng = rng_for(10)
        for _ in range(200):
            a = oracle.random_pd(4, rng, "complex")
            x, _ = _refined_inverse(a.mat)
            assert np.trace(a.mat).real * np.trace(x).real >= 16 - 1e-8


class TestSumFormulaFacts:
    def test_x_plus_xinv_eigs(self):
        rng = rng_for(12)
        for _ in range(200):
            a = oracle.random_pd(3, rng)
            b = oracle.random_pd(3, rng)
            (r,) = herm_powers(b.mat, -0.5)
            h = r @ a.mat @ r
            w = np.linalg.eigvalsh(h + np.linalg.inv(h))
            assert w.min() >= 2 - 1e-8


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 8),
       field=st.sampled_from(["real", "complex"]))
def test_sqrt_squares_back(seed, n, field):
    a = oracle.random_pd(n, rng_for(seed), field)
    (s,) = herm_powers(a.mat, 0.5)
    assert np.linalg.norm(s @ s - a.mat) <= 1e-10 * max(1.0, np.linalg.norm(a.mat))
    assert np.linalg.eigvalsh(s)[0] > 0


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 5), p=st.integers(1, 6),
       field=st.sampled_from(["real", "complex"]))
def test_family_roundtrip_bit_exact(seed, n, p, field):
    fam = oracle.random_family(n, p, rng_for(seed), field)
    back = cp.family_from_dict(cp.family_to_dict(fam))
    assert back.p == fam.p
    assert np.array_equal(back.mats, fam.mats)


class TestCyclicFamily:
    def test_mixed_dims_rejected(self):
        members = [cp.family_to_dict(cp.CyclicFamily(np.eye(k)[None]))["members"][0] for k in (2, 3)]
        with pytest.raises(cp.DimensionMismatch):
            cp.family_from_dict({"p": 2, "members": members})
