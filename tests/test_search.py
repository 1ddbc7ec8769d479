import numpy as np
import pytest

import cyclicpd as cp
from cyclicpd import search
from cyclicpd.search import _margin_value, classify_margin

DRINFELD_GAMMA = 0.98913  # S_p >= gamma * p / 2 for positive scalars (Drinfeld, 1971)


def rng_for(seed):
    return np.random.default_rng(seed)


class TestScalarOracle:
    def test_nesbitt_example(self):
        assert cp.scalar_cyclic_sum([1, 2, 3]) == pytest.approx(1.7, abs=1e-12)

    def test_all_equal(self):
        assert cp.scalar_cyclic_sum([2.0] * 7) == pytest.approx(3.5, abs=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            cp.scalar_cyclic_sum([1.0, -1.0, 2.0])


class TestShapiroMargin:
    def test_identity_zero(self):
        fam = cp.CyclicFamily(cp.validate_family([np.eye(2)] * 5))
        assert cp.shapiro_margin(fam) == pytest.approx(0.0, abs=1e-12)

    def test_fixture(self):
        assert cp.shapiro_margin(cp.counterexample_family()) == pytest.approx(1.2786, abs=1e-3)

    def test_scalar_123(self):
        assert cp.shapiro_margin(cp.diagonal_embed([1, 2, 3], 1)) == pytest.approx(0.2, abs=1e-12)


class TestDiagonalEmbed:
    def test_identity(self):
        fam = cp.diagonal_embed([1.0, 1.0, 1.0], 2)
        assert cp.cyclic_sum_trace(fam) == pytest.approx(3.0, abs=1e-12)

    def test_scaling(self):
        rng = rng_for(0)
        for p in (3, 7, 14):
            s = np.exp(rng.uniform(-2, 2, p))
            for n in (1, 2, 4):
                fam = cp.diagonal_embed(s, n)
                assert cp.shapiro_margin(fam) == pytest.approx(
                    n * (cp.scalar_cyclic_sum(s) - p / 2), rel=1e-12, abs=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            cp.diagonal_embed([1.0, 0.0, 2.0], 2)


class TestGradient:
    def test_identity_symmetry(self):
        for n, p in [(1, 3), (2, 5), (3, 4)]:
            grads = cp.margin_gradient([np.eye(n)] * p, 1e-8)
            for g in grads[1:]:
                assert np.allclose(g, grads[0], atol=1e-12)

    def test_scalar_hand_formula(self):
        # d/dl_j of sum_i a_i/(a_{i+1}+a_{i+2}) with a_i = l_i^2 + ridge
        ridge = 1e-8
        l = np.array([1.1, 0.7, 1.9])
        a = l * l + ridge
        expected = np.zeros(3)
        for i in range(3):
            s = a[(i + 1) % 3] + a[(i + 2) % 3]
            expected[i] += 1.0 / s
            expected[(i + 1) % 3] -= a[i] / s**2
            expected[(i + 2) % 3] -= a[i] / s**2
        expected *= 2 * l
        grads = cp.margin_gradient([np.array([[v]]) for v in l], ridge)
        assert np.allclose([g[0, 0] for g in grads], expected, rtol=1e-12)

    @pytest.mark.parametrize("n,p,seed", [(1, 3, 0), (2, 4, 1), (3, 6, 2), (2, 6, 3)])
    def test_finite_differences(self, n, p, seed):
        rng = rng_for(seed)
        ridge = 1e-8
        factors = [np.eye(n) + 0.4 * rng.standard_normal((n, n)) for _ in range(p)]
        grads = cp.margin_gradient(factors, ridge)
        h = 1e-5
        for j in range(p):
            for a in range(n):
                for b in range(n):
                    fp = [f.copy() for f in factors]
                    fm = [f.copy() for f in factors]
                    fp[j][a, b] += h
                    fm[j][a, b] -= h
                    fd = (_margin_value(fp, ridge) - _margin_value(fm, ridge)) / (2 * h)
                    assert grads[j][a, b] == pytest.approx(fd, rel=1e-6, abs=1e-8)


class TestSearchConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            cp.SearchConfig(p=2)
        with pytest.raises(ValueError):
            cp.SearchConfig(p=3, restarts=0)
        with pytest.raises(ValueError):
            cp.SearchConfig(p=3, ridge=0.0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                cp.SearchConfig(p=3, ridge=bad)
            with pytest.raises(ValueError):
                cp.SearchConfig(p=3, step_init=bad)
        with pytest.raises(ValueError, match="ridge"):
            cp.SearchConfig(p=3, ridge=1e200)
        assert cp.SearchConfig(p=3, ridge=search.MAX_RIDGE).ridge == 1e100
        with pytest.raises(ValueError, match="ridge"):
            cp.SearchConfig(p=3, ridge=1e-14)
        assert cp.SearchConfig(p=3, ridge=search.MIN_RIDGE).ridge == 1e-10
        for bad in (np.nextafter(search.MAX_STEP, np.inf), 1e16, 1e300):
            with pytest.raises(ValueError, match="step_init"):
                cp.SearchConfig(p=3, step_init=bad)
        assert cp.SearchConfig(p=3, step_init=search.MAX_STEP).step_init == 1e3


class TestMinimizeMargin:
    def test_nesbitt_respected(self):
        res = cp.minimize_margin(cp.SearchConfig(p=3, n=1, restarts=6, max_iters=400, master_seed=1))
        assert res.best_margin >= -1e-9
        assert res.classification in ("no_counterexample_found", "numerical_noise")

    @pytest.mark.parametrize("p,max_iters,seed", [(5, 150, 9), (4, 100, 3)])
    def test_deterministic(self, p, max_iters, seed):
        cfg = cp.SearchConfig(p=p, n=2, restarts=4, max_iters=max_iters, master_seed=seed)
        r1 = cp.minimize_margin(cfg)
        r2 = cp.minimize_margin(cfg)
        assert r1.to_dict() == r2.to_dict()

    def test_monotone_history(self):
        res = cp.minimize_margin(cp.SearchConfig(p=6, n=2, restarts=3, max_iters=300, master_seed=7))
        hist = [m for _, m in res.margin_history]
        for prev, cur in zip(hist, hist[1:]):
            assert cur <= prev + 1e-9 * (1 + abs(prev))

    def test_margin_matches_family_reevaluation(self):
        res = cp.minimize_margin(cp.SearchConfig(p=4, n=2, restarts=3, max_iters=200, master_seed=5))
        redo = cp.shapiro_margin(res.best_family)
        assert redo == pytest.approx(res.best_margin, abs=1e-9)

    def test_serialized_family_replayable(self):
        res = cp.minimize_margin(cp.SearchConfig(p=4, n=1, restarts=2, max_iters=100, master_seed=2))
        fam = cp.family_from_dict(cp.family_to_dict(res.best_family))
        assert cp.shapiro_margin(fam) == pytest.approx(res.best_margin, abs=1e-9)


class TestClassification:
    def test_bands(self):
        tol = cp.Tolerance()
        assert classify_margin(0.5, tol) == "no_counterexample_found"
        assert classify_margin(-1e-10, tol) == "numerical_noise"
        assert classify_margin(-1e-4, tol) == "candidate"


class TestProbeConjecture:
    def test_rejects_other_p(self):
        with pytest.raises(ValueError):
            cp.probe_conjecture(14, cp.SearchConfig(p=14))

    def test_small_budget_probe(self):
        cfg = cp.SearchConfig(p=12, restarts=2, max_iters=120, master_seed=4)
        out = cp.probe_conjecture(12, cfg, dims=(1,))
        assert set(out) == {1}
        assert out[1].best_margin >= -1e-9
        assert out[1].classification


# ---------------------------------------------------------------------------
# Looped reference: the one-restart-at-a-time descent the lockstep one replaced
# ---------------------------------------------------------------------------

def ref_init_factors(cfg, r):
    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.master_seed, spawn_key=(r,)))
    if cfg.n == 1:
        a = np.exp(rng.uniform(-3.0, 3.0, cfg.p))
        return [np.array([[v]]) for v in np.sqrt(np.maximum(a - cfg.ridge, 1e-12))]
    eye = np.eye(cfg.n)
    return [eye + 0.5 * rng.standard_normal((cfg.n, cfg.n)) for _ in range(cfg.p)]


def ref_mats(factors, ridge):
    eye = np.eye(factors[0].shape[0])
    return [l @ l.T + ridge * eye for l in factors]


def ref_margin_value(factors, ridge):
    mats = ref_mats(factors, ridge)
    p = len(mats)
    n = mats[0].shape[0]
    total = 0.0
    for i in range(p):
        s = mats[(i + 1) % p] + mats[(i + 2) % p]
        total += float(np.trace(np.linalg.solve(s, mats[i])))
    return total - p * n / 2.0


def ref_margin_gradient(factors, ridge):
    factors = [np.asarray(l, dtype=np.float64) for l in factors]
    p = len(factors)
    mats = ref_mats(factors, ridge)
    invs = [np.linalg.inv(mats[(i + 1) % p] + mats[(i + 2) % p]) for i in range(p)]
    ks = [invs[i] @ mats[i] @ invs[i] for i in range(p)]
    return [2.0 * (invs[j] - ks[(j - 1) % p] - ks[(j - 2) % p]) @ factors[j] for j in range(p)]


def ref_descend(cfg, factors):
    f = ref_margin_value(factors, cfg.ridge)
    history = [(0, f)]
    step = cfg.step_init
    iters = 0
    for it in range(1, cfg.max_iters + 1):
        grads = ref_margin_gradient(factors, cfg.ridge)
        gnorm2 = sum(float((g * g).sum()) for g in grads)
        if gnorm2 < 1e-24:
            break
        t = step
        accepted = False
        for _ in range(50):
            cand = [l - t * g for l, g in zip(factors, grads)]
            f2 = ref_margin_value(cand, cfg.ridge)
            if f2 <= f - 1e-4 * t * gnorm2:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
        factors, f = cand, f2
        iters = it
        history.append((it, f))
        step = min(2.0 * t, 1e3)
        if it % 100 == 0:
            total_tr = sum(float(np.trace(m)) for m in ref_mats(factors, cfg.ridge))
            fixed = [np.sqrt(cfg.p * cfg.n / total_tr) * l for l in factors]
            f_fixed = ref_margin_value(fixed, cfg.ridge)
            if f_fixed <= f + 1e-12 * (1.0 + abs(f)):
                factors, f = fixed, f_fixed
    return factors, f, history, iters


def lockstep_results(cfg, init):
    """Per-restart (margin, iters, history, factors) of one lockstep descent."""
    factors, margins, histories, iters = search._descend(cfg, init)
    return [(margins[r], iters[r], histories[r], factors[r]) for r in range(len(init))]


def assert_same_restart(a, b):
    assert a[0] == b[0]
    assert a[1] == b[1]
    assert a[2] == b[2]
    assert np.array_equal(a[3], b[3])


ORACLE_CONFIGS = [
    {"p": p, "n": n, "restarts": 3, "max_iters": 40, "master_seed": 10 * p + n}
    for n in (1, 2, 3) for p in (3, 5, 12, 14, 23)
] + [
    {"p": 14, "n": 1, "restarts": 8, "max_iters": 400, "master_seed": 11},  # uneven stops
    {"p": 5, "n": 2, "restarts": 4, "max_iters": 250, "master_seed": 9},  # past the gauge fix
]


class TestLockstepOracle:
    @pytest.mark.parametrize("kw", ORACLE_CONFIGS, ids=lambda kw: "p{p}-n{n}-it{max_iters}".format(**kw))
    def test_bit_identical_to_looped(self, kw):
        cfg = cp.SearchConfig(**kw)
        init = search._initial_factors(cfg)
        got = lockstep_results(cfg, init)
        for r in range(cfg.restarts):
            start = ref_init_factors(cfg, r)
            assert np.array_equal(init[r], np.stack(start))
            factors, f, history, iters = ref_descend(cfg, start)
            assert_same_restart(got[r], (f, iters, history, np.stack(factors)))
        if cfg.max_iters == 400:
            assert len({g[1] for g in got}) > 1
        if cfg.max_iters == 250:
            assert max(g[1] for g in got) > 100

    @staticmethod
    def assert_kernels_match_looped(stack, ridge=1e-8):
        values = _margin_value(stack, ridge)
        grads = cp.margin_gradient(stack, ridge)
        assert values.shape == stack.shape[:1] and grads.shape == stack.shape
        for r in range(len(stack)):
            assert values[r] == ref_margin_value(list(stack[r]), ridge)
            assert np.array_equal(grads[r], np.stack(ref_margin_gradient(list(stack[r]), ridge)))

    @pytest.mark.parametrize("n,p", [(1, 14), (2, 5), (3, 23)])
    def test_stacked_kernels_match_looped(self, n, p):
        rng = rng_for(p + n)
        self.assert_kernels_match_looped(np.eye(n) + 0.4 * rng.standard_normal((4, p, n, n)))

    @pytest.mark.parametrize("p", [3, 5, 14, 23])
    def test_scalar_kernels_match_looped_at_extreme_scales(self, p):
        rng = rng_for(100 + p)
        # A_i = L_i^2 spans e^-8..e^8
        self.assert_kernels_match_looped(np.exp(rng.uniform(-4.0, 4.0, (4, p, 1, 1))))


class TestRestartIsolation:
    CFG = cp.SearchConfig(p=5, n=2, restarts=5, max_iters=150, master_seed=9)

    def test_alone_equals_in_batch(self):
        init = search._initial_factors(self.CFG)
        batch = lockstep_results(self.CFG, init)
        for r in range(self.CFG.restarts):
            assert_same_restart(lockstep_results(self.CFG, init[r:r + 1])[0], batch[r])
        reordered = lockstep_results(self.CFG, init[::-1])
        for r in range(self.CFG.restarts):
            assert_same_restart(reordered[-1 - r], batch[r])

    @pytest.mark.parametrize("poison", ["nan", "singular", "gradient"])
    def test_diverging_restart_dropped_alone(self, poison, monkeypatch):
        clean_init = search._initial_factors(self.CFG)
        clean = lockstep_results(self.CFG, clean_init)
        bad = 1
        init = clean_init.copy()
        if poison == "nan":
            init[bad, 0, 0, 0] = np.nan
        elif poison == "singular":
            init[bad] = 1e10  # A_i = L L^T + ridge*I rounds to a rank-one matrix
        else:
            marked = init[bad].copy()
            original = search.margin_gradient

            def failing(factors, ridge):
                if any(np.array_equal(f, marked) for f in factors):
                    raise np.linalg.LinAlgError("injected")
                return original(factors, ridge)

            monkeypatch.setattr(search, "margin_gradient", failing)
        monkeypatch.setattr(search, "_initial_factors", lambda cfg: init)
        got = lockstep_results(self.CFG, init)
        assert np.isnan(got[bad][0])
        for r in range(self.CFG.restarts):
            if r != bad:
                assert_same_restart(got[r], clean[r])
        res = cp.minimize_margin(self.CFG)
        survivors = [r for r in range(self.CFG.restarts) if r != bad]
        winner = min(survivors, key=lambda r: (clean[r][0], r))
        assert res.restart_index == winner
        assert res.iterations_used == sum(int(clean[r][1]) for r in survivors)

    def test_all_restarts_diverged(self, monkeypatch):
        cfg = cp.SearchConfig(p=4, n=2, restarts=2, max_iters=10)
        monkeypatch.setattr(search, "_initial_factors", lambda cfg: np.full((2, 4, 2, 2), np.nan))
        with pytest.raises(RuntimeError, match="all restarts diverged"):
            cp.minimize_margin(cfg)


class TestDrinfeldBound:
    @pytest.mark.parametrize("p", [14, 16, 24])
    def test_scalar_search_respects_drinfeld(self, p):
        res = cp.minimize_margin(cp.SearchConfig(p=p, n=1, restarts=16, master_seed=7))
        assert res.best_margin >= (DRINFELD_GAMMA - 1.0) * p / 2.0
