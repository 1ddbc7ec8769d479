import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import cyclicpd as cp
import looped_oracle as oracle
from cyclicpd import inequalities as ineq, search
from cyclicpd.search import _margin_value, classify_margin

DRINFELD_GAMMA = 0.98913  # S_p >= gamma * p / 2 for positive scalars (Drinfeld, 1971)


def rng_for(seed):
    return np.random.default_rng(seed)


def shapiro_margin(fam):
    """The defect of the conditional trace bound, as ``eval --expr margin`` prints it."""
    return cp.cyclic_sum_trace(fam) - fam.p * fam.dim / 2.0


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
        assert shapiro_margin(fam) == pytest.approx(0.0, abs=1e-12)

    def test_fixture(self):
        assert shapiro_margin(cp.counterexample_family()) == pytest.approx(1.2786, abs=1e-3)

    def test_scalar_123(self):
        assert shapiro_margin(oracle.diagonal_embed([1, 2, 3], 1)) == pytest.approx(0.2, abs=1e-12)


class TestDiagonalEmbed:
    def test_identity(self):
        fam = oracle.diagonal_embed([1.0, 1.0, 1.0], 2)
        assert cp.cyclic_sum_trace(fam) == pytest.approx(3.0, abs=1e-12)

    def test_scaling(self):
        rng = rng_for(0)
        for p in (3, 7, 14):
            s = np.exp(rng.uniform(-2, 2, p))
            for n in (1, 2, 4):
                fam = oracle.diagonal_embed(s, n)
                assert shapiro_margin(fam) == pytest.approx(
                    n * (cp.scalar_cyclic_sum(s) - p / 2), rel=1e-12, abs=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            oracle.diagonal_embed([1.0, 0.0, 2.0], 2)


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
        redo = shapiro_margin(res.best_family)
        assert redo == pytest.approx(res.best_margin, abs=1e-9)

    def test_serialized_family_replayable(self):
        res = cp.minimize_margin(cp.SearchConfig(p=4, n=1, restarts=2, max_iters=100, master_seed=2))
        fam = cp.family_from_dict(cp.family_to_dict(res.best_family))
        assert shapiro_margin(fam) == pytest.approx(res.best_margin, abs=1e-9)


def old_default_two_steps(margin):
    """The verdict as ``search --tol-rel`` reached it at its default 1e-9, in
    two steps: the noise band of that tolerance (10 x 1e-9), then a
    "candidate" below it checked against the band of the re-check's 1e-12
    tolerance (10 x 1e-12)."""
    if margin >= 0.0:
        return "no_counterexample_found"
    if margin > -10.0 * 1e-9:
        return "numerical_noise"
    return "verified_counterexample" if margin < -10.0 * 1e-12 else "numerical_noise"


class TestClassification:
    def test_bands(self):
        assert classify_margin(0.5) == "no_counterexample_found"
        assert classify_margin(-1e-10) == "numerical_noise"
        assert classify_margin(-1e-4) == "verified_counterexample"

    def test_one_band_equals_the_old_default_two_steps_at_every_edge(self):
        table = [(1e-9, "no_counterexample_found"), (-5e-11, "numerical_noise"),
                 (-5e-9, "numerical_noise"), (-2e-8, "verified_counterexample")]
        for margin, verdict in table:
            assert classify_margin(margin) == verdict
        edges = (0.0, -search.NOISE_BAND, -1e-11)
        margins = [m for e in edges for m in (np.nextafter(e, -np.inf), e, np.nextafter(e, np.inf))]
        for margin in margins + [np.nan]:
            assert classify_margin(margin) == old_default_two_steps(margin), margin


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
    return oracle.looped_cyclic_sum(mats) - len(mats) * mats[0].shape[0] / 2.0


def ref_margin_gradient(factors, ridge):
    factors = [np.asarray(l, dtype=np.float64) for l in factors]
    p = len(factors)
    mats = ref_mats(factors, ridge)
    invs = [oracle._inv(mats[(i + 1) % p] + mats[(i + 2) % p]) for i in range(p)]
    ks = [invs[i] @ mats[i] @ invs[i] for i in range(p)]
    return [2.0 * (invs[j] - ks[(j - 1) % p] - ks[(j - 2) % p]) @ factors[j] for j in range(p)]


def ref_descend(cfg, factors, line_searches=None):
    """Serial descent of one restart, one trial step per evaluation.

    When ``line_searches`` is a list, each line search appends to it
    (iteration, factors, grads, trial steps tried, accepted halving index or
    None when all 50 fail).
    """
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
        accepted = None
        tried = []
        for j in range(50):
            tried.append(t)
            cand = [l - t * g for l, g in zip(factors, grads)]
            f2 = ref_margin_value(cand, cfg.ridge)
            if f2 <= f - 1e-4 * t * gnorm2:
                accepted = j
                break
            t *= 0.5
        if line_searches is not None:
            line_searches.append((it, factors, grads, tried, accepted))
        if accepted is None:
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
    factors, margins, history, iters = search._descend(cfg, init)
    return [(margins[r], iters[r], [(k, history[k, r]) for k in range(iters[r] + 1)], factors[r])
            for r in range(len(init))]


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

    def test_grid_reaches_every_halving_chunk(self):
        # the grid above must exercise each stacked chunk of the line search,
        # a line search that fails all its halvings, and the gauge fix
        reached, accepted_at = set(), set()
        for kw in ORACLE_CONFIGS:
            cfg = cp.SearchConfig(**kw)
            for r in range(cfg.restarts):
                line_searches = []
                ref_descend(cfg, ref_init_factors(cfg, r), line_searches)
                for it, _, _, _, j in line_searches:
                    reached.add(j)
                    if j is not None:
                        accepted_at.add(it)
        assert search.MAX_HALVINGS == 50
        lo = 0
        for k in search.HALVING_CHUNKS:
            assert reached & set(range(lo, lo + k)), f"no halving in {lo}..{lo + k - 1} accepted"
            lo += k
        assert None in reached  # a line search that failed all 50 halvings
        assert max(accepted_at) > 100

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


def test_history_memory_follows_iterations_run():
    # max_iters has no upper bound: a history sized by it would trace 32 MB here
    cfg = cp.SearchConfig(p=3, n=1, restarts=4, max_iters=10**6, master_seed=1)
    init = search._initial_factors(cfg)
    tracemalloc.start()
    try:
        _, _, history, iters = search._descend(cfg, init)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert iters.max() < 1000  # every restart stops early
    assert history.shape == (iters.max() + 1, cfg.restarts)
    assert peak < 2**20


class TestBatchedLineSearch:
    """The line search evaluates several halvings per stacked call."""

    CFG = TestRestartIsolation.CFG

    @staticmethod
    def chunk_of(j):
        return int(np.searchsorted(np.cumsum(search.HALVING_CHUNKS), j, side="right"))

    @staticmethod
    def moves(ls):
        """Whether trial steps j - 1, j and j + 1 of line search ``ls`` each
        leave its start point. Near the round-off floor t * g can vanish
        beside the factors; such a trial point is the start point itself, so
        a fault keyed on its value would hit every evaluation of that point."""
        _, factors, grads, tried, j = ls
        start, g = np.stack(factors), np.stack(grads)
        return all(not np.array_equal(start - t * g, start) for t in (tried[j - 1], tried[j], tried[j] * 0.5))

    def line_search_inside_a_chunk(self):
        """(restart, serial run, line search): the latest line search whose
        accepted halving j has halvings j - 1 and j + 1 in its own chunk, and
        whose trial points j - 1, j and j + 1 move (see ``moves``)."""
        found = []
        for r in range(self.CFG.restarts):
            line_searches = []
            run = ref_descend(self.CFG, ref_init_factors(self.CFG, r), line_searches)
            found += [(ls[0], r, run, ls) for ls in line_searches
                      if ls[4] is not None and ls[4] >= 1 and self.chunk_of(ls[4] - 1) == self.chunk_of(ls[4] + 1)
                      and self.moves(ls)]
        assert found, "no accepted halving with both neighbours in its chunk"
        _, r, run, ls = max(found, key=lambda x: (x[0], x[1]))
        return r, run, ls

    def run_poisoned(self, monkeypatch, bad):
        """Lockstep results when evaluating the factors ``bad`` raises LinAlgError."""
        original = search._margin_value
        hits = []

        def poisoned(factors, ridge):
            if (factors == bad).all(axis=(1, 2, 3)).any():
                hits.append(len(factors))
                raise np.linalg.LinAlgError("injected")
            return original(factors, ridge)

        monkeypatch.setattr(search, "_margin_value", poisoned)
        return lockstep_results(self.CFG, search._initial_factors(self.CFG)), hits

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_raise_after_the_accepted_halving_is_ignored(self, monkeypatch):
        r, _, (it, factors, grads, tried, j) = self.line_search_inside_a_chunk()
        # the serial search stops at halving j and never evaluates j + 1
        bad = np.stack(factors) - (tried[j] * 0.5) * np.stack(grads)
        clean = lockstep_results(self.CFG, search._initial_factors(self.CFG))
        got, hits = self.run_poisoned(monkeypatch, bad)
        assert hits  # the batched search did evaluate it
        for s in range(self.CFG.restarts):
            assert_same_restart(got[s], clean[s])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_raise_before_the_accepted_halving_retires_the_restart(self, monkeypatch):
        r, (_, _, history, _), (it, factors, grads, tried, j) = self.line_search_inside_a_chunk()
        bad = np.stack(factors) - tried[j - 1] * np.stack(grads)
        clean = lockstep_results(self.CFG, search._initial_factors(self.CFG))
        got, hits = self.run_poisoned(monkeypatch, bad)
        assert hits
        margin, iters, got_history, _ = got[r]
        assert np.isnan(margin)
        # the serial search retires it in iteration it, before accepting
        assert iters == it - 1
        assert got_history == history[:it]
        for s in range(self.CFG.restarts):
            if s != r:
                assert_same_restart(got[s], clean[s])

    def test_stacked_calls_per_descent(self, monkeypatch):
        # search-scalar golden argv: 154 calls at one halving per call
        cfg = cp.SearchConfig(p=14, n=1, restarts=8, max_iters=50, master_seed=11)
        original = search._margin_value
        calls = []

        def counting(factors, ridge):
            calls.append(len(factors))
            return original(factors, ridge)

        monkeypatch.setattr(search, "_margin_value", counting)
        search._descend(cfg, search._initial_factors(cfg))
        assert len(calls) <= 60


class TestMatsFromFactors:
    """``_mats_from_factors`` multiplies by a contiguous copy of the
    transpose; it must round as the transposed view does."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_contiguous_transpose_is_bit_identical(self, n):
        rng = rng_for(300 + n)
        for size in range(1, 65):
            # each block scaled by its own e^-8..e^8
            factors = rng.standard_normal((size, 3, n, n)) * np.exp(rng.uniform(-8.0, 8.0, (size, 3, 1, 1)))
            want = factors @ np.swapaxes(factors, -1, -2) + 1e-8 * np.eye(n)
            assert np.array_equal(search._mats_from_factors(factors, 1e-8), want)

    @pytest.mark.parametrize("n", [2, 3])
    def test_products_are_exactly_symmetric(self, n):
        # the closed form reads only the upper triangle of each block
        rng = rng_for(310 + n)
        factors = rng.standard_normal((64, 23, n, n)) * np.exp(rng.uniform(-8.0, 8.0, (64, 23, 1, 1)))
        mats = search._mats_from_factors(factors, 1e-8)
        assert np.array_equal(mats, np.swapaxes(mats, -1, -2))


def lapack_traces(mats):
    """The cyclic trace sums by one batched LAPACK solve, the path of n >= 4."""
    terms = np.linalg.solve(ineq.cyclic_denominators(mats), mats)
    return ineq._sum_over_p(np.trace(terms, axis1=-2, axis2=-1))


def lapack_margin(factors, ridge):
    """The margin by one batched LAPACK solve."""
    mats = search._mats_from_factors(factors, ridge)
    return lapack_traces(mats) - mats.shape[-3] * mats.shape[-1] / 2.0


def lapack_inverses(mats):
    """S_i^{-1} by one batched LAPACK inv, symmetrized, as ``_inv`` takes it."""
    x = np.linalg.inv(ineq.cyclic_denominators(mats))
    return (x + np.swapaxes(x, -1, -2)) / 2.0


def lapack_gradient(factors, ridge):
    """The gradient with S_i^{-1} from ``lapack_inverses``."""
    mats = search._mats_from_factors(factors, ridge)
    invs = lapack_inverses(mats)
    ks = invs @ mats @ invs
    d = invs - ineq.cyclic_shift(ks, -1) - ineq.cyclic_shift(ks, -2)
    return 2.0 * d @ factors


def admitted_blocks(s):
    """Per block of a stack (..., n, n), n in {2, 3}: whether the guard lets
    the closed form invert it."""
    n = s.shape[-1]
    unique = s.reshape(s.shape[:-2] + (n * n,))[..., ineq._UNIQUE[n]]
    with np.errstate(all="ignore"):  # as the kernels call it
        return ineq._cofactors(np.moveaxis(unique, -1, 0))[2]


def admitted(factors, ridge):
    """Per denominator S_i of stacked factors, (families, p): ``admitted_blocks``."""
    return admitted_blocks(ineq.cyclic_denominators(search._mats_from_factors(factors, ridge)))


def exact_inverse(s):
    """Inverse of a float matrix in exact rational arithmetic, rounded once."""
    n = len(s)
    m = [[Fraction(float(x)) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(s)]
    for c in range(n):
        piv = next(r for r in range(c, n) if m[r][c] != 0)
        m[c], m[piv] = m[piv], m[c]
        m[c] = [x / m[c][c] for x in m[c]]
        for r in range(n):
            if r != c:
                m[r] = [x - m[r][c] * y for x, y in zip(m[r], m[c])]
    return np.array([[float(x) for x in row[n:]] for row in m])


class TestClosedFormAgainstLapack:
    """At real n = 2, 3 the one inversion rule inverts each S_i in closed
    form unless the guard refuses that block, and the search's margin and
    gradient go through it. LAPACK stays the accuracy oracle: admitted blocks
    and the terms they give agree with it to 1e-12 relative, and each refused
    block (ill-conditioned, det <= 0, nan) gets LAPACK's symmetrized inverse,
    solve term, nan or LinAlgError bit for bit, whatever the other blocks of
    its family."""

    RTOL = 1e-12

    @staticmethod
    def stack(kind, n, p, rng, size=32):
        eye = np.eye(n)
        if kind == "random":
            return eye + 0.4 * rng.standard_normal((size, p, n, n))
        if kind == "scaled":
            # A_i = L_i L_i^T spans e^-8..e^8 across members
            return (eye + 0.4 * rng.standard_normal((size, p, n, n))) * np.exp(rng.uniform(-4.0, 4.0, (size, p, 1, 1)))
        # ridge floor: each A_i = L_i L_i^T + ridge*I has an eigenvalue at the
        # ridge. In the first half its null direction is random; in the second
        # every A_i of a family shares it, so S_i has one at 2 * ridge.
        factors = rng.standard_normal((size, p, n, n))
        factors[:size // 2, ..., -1] = 0.0
        factors[size // 2:, ..., -1, :] = 0.0
        turn = np.linalg.qr(rng.standard_normal((size - size // 2, 1, n, n)))[0]
        factors[size // 2:] = turn @ factors[size // 2:]
        return factors

    def check(self, factors, ridge):
        """Asserts the kernels against LAPACK on a stack; returns which
        blocks the guard admitted, (families, p)."""
        p, n = factors.shape[-3], factors.shape[-1]
        ok = admitted(factors, ridge)
        mats = search._mats_from_factors(factors, ridge)
        invs, want_invs = ineq.cyclic_inverses(mats), lapack_inverses(mats)
        assert np.array_equal(invs[~ok], want_invs[~ok], equal_nan=True)
        err = np.abs(invs - want_invs).max(axis=(-1, -2)) / np.abs(want_invs).max(axis=(-1, -2))
        assert np.all(err[ok] <= self.RTOL)
        values, want_values = _margin_value(factors, ridge), lapack_margin(factors, ridge)
        grads, want_grads = cp.margin_gradient(factors, ridge), lapack_gradient(factors, ridge)
        # a refused block's term is LAPACK's solve term, as the looped kernel takes it
        refs = [ref_margin_value(list(f), ridge) for f in factors]
        assert np.array_equal(values, refs, equal_nan=True)
        lapack_only = ~ok.any(axis=1)
        assert np.array_equal(values[lapack_only], want_values[lapack_only], equal_nan=True)
        assert np.array_equal(grads[lapack_only], want_grads[lapack_only], equal_nan=True)
        # relative to the size of what each result sums: the trace sum for the
        # margin, and for the gradient 2 (|S_j^{-1}| + |K_{j-1}| + |K_{j-2}|) |L_j|,
        # K_i = S_i^{-1} A_i S_i^{-1}, since its terms can cancel
        finite = np.isfinite(want_values)
        assert np.array_equal(finite, np.isfinite(values))
        traces = want_values + p * n / 2.0
        ks = np.abs(want_invs @ mats @ want_invs)
        terms = np.abs(want_invs) + ineq.cyclic_shift(ks, -1) + ineq.cyclic_shift(ks, -2)
        scale = (2.0 * terms @ np.abs(factors)).max(axis=(1, 2, 3))
        assert np.all(np.abs(values - want_values)[finite] <= self.RTOL * traces[finite])
        assert np.all(np.abs(grads - want_grads).max(axis=(1, 2, 3))[finite] <= self.RTOL * scale[finite])
        return ok

    @pytest.mark.parametrize("ridge", [1e-8, search.MIN_RIDGE, search.MAX_RIDGE])
    @pytest.mark.parametrize("kind", ["random", "scaled", "floor"])
    @pytest.mark.parametrize("n,p", [(2, 12), (3, 23), (2, 3), (3, 5)])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_admitted_agree_refused_identical(self, n, p, kind, ridge):
        ok = self.check(self.stack(kind, n, p, rng_for(1000 * n + 10 * p + len(kind))), ridge)
        assert ok.any()
        if kind == "random" or ridge > 1.0:
            assert ok.all()
        if kind == "floor" and ridge < 1.0:
            # a shared null direction is always refused
            assert not ok[16:].any()

    @pytest.mark.parametrize("n", [2, 3])
    def test_inverses_agree_with_lapack(self, n):
        rng = rng_for(400 + n)
        for kind in ("random", "scaled", "floor"):
            mats = search._mats_from_factors(self.stack(kind, n, 7, rng), search.MIN_RIDGE)
            got, want = ineq.cyclic_inverses(mats), lapack_inverses(mats)
            ok = admitted_blocks(ineq.cyclic_denominators(mats))
            err = np.abs(got - want).max(axis=(-1, -2)) / np.abs(want).max(axis=(-1, -2))
            assert np.all(err[ok] <= self.RTOL)
            assert np.array_equal(got[~ok], want[~ok])

    @pytest.mark.parametrize("n,p", [(2, 12), (3, 23)])
    def test_refused_families_give_lapack_bits_to_every_caller(self, n, p):
        # verify and eval read F_p through cyclic_traces and cyclic_sum_trace;
        # a family with refused blocks takes the looped kernel's bits, and one
        # whose every block is refused the batched LAPACK solve's
        rng = rng_for(800 + n)
        factors = np.concatenate([self.stack(kind, n, p, rng) for kind in ("scaled", "floor")])
        mats = search._mats_from_factors(factors, search.MIN_RIDGE)
        ok = admitted(factors, search.MIN_RIDGE)
        mixed = ok.any(axis=1) & ~ok.all(axis=1)
        lapack_only = ~ok.any(axis=1)
        assert mixed.any() and lapack_only.any()
        got = ineq.cyclic_traces(mats)
        assert np.array_equal(got[lapack_only], lapack_traces(mats)[lapack_only])
        for i in np.flatnonzero(~ok.all(axis=1)):
            want = oracle.looped_cyclic_sum(list(mats[i]))
            assert got[i] == want and cp.cyclic_sum_trace(cp.CyclicFamily(mats[i])) == want

    @pytest.mark.parametrize("n", [2, 3])
    def test_admitted_blocks_near_the_guard_are_accurate(self, n):
        # blocks with condition numbers up to 1e7: the admitted ones, down to
        # det / prod(diag) = MIN_DET_RATIO, invert to 1e-12 of the exact inverse
        rng = rng_for(500 + n)
        q = np.linalg.qr(rng.standard_normal((4000, n, n)))[0]
        s = (q * np.exp(rng.uniform(0.0, np.log(1e7), (4000, 1, n)))) @ np.swapaxes(q, -1, -2)
        s = (s + np.swapaxes(s, -1, -2)) / 2.0
        ok = admitted_blocks(s)
        ratio = np.linalg.det(s) / np.prod(np.diagonal(s, axis1=-2, axis2=-1), axis=-1)
        near = np.flatnonzero(ok & (ratio < 4 * ineq.MIN_DET_RATIO))
        assert len(near) >= 20 and (~ok).any()
        for i in near[:40]:
            got = ineq._inv(s[i])
            want = exact_inverse(s[i])
            assert np.abs(got - want).max() <= self.RTOL * np.abs(want).max()

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("poison", ["singular", "zero", "nan", "huge"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_poisoned_family_takes_the_lapack_path(self, n, poison):
        rng = rng_for(600 + n)
        factors = self.stack("random", n, 5, rng, size=4)
        ridge = 0.0 if poison == "zero" else 1e-8
        if poison == "singular":
            factors[1] = 1e10  # A_i = L L^T + ridge*I rounds to a rank-one matrix: det 0
        elif poison == "zero":
            factors[1, :, -1, :] = 0.0  # with no ridge, S_i has a zero row: det and diagonal 0
        elif poison == "nan":
            factors[1, 0, 0, 0] = np.nan
        else:
            factors[1] = (1e80 if n == 2 else 1e52) * np.eye(n)  # det overflows to inf; LAPACK does not
        ok = admitted(factors, ridge)
        assert ok.all(axis=1).tolist() == [True, False, True, True]
        # a nan entry of A_0 poisons only the two S_i that hold A_0
        assert ok[1].sum() == (3 if poison == "nan" else 0)
        singular = poison in ("singular", "zero")
        for fn, ref in ((_margin_value, lapack_margin), (cp.margin_gradient, lapack_gradient)):
            if singular:
                for rows in (factors, factors[1:2]):
                    for f in (fn, ref):
                        with pytest.raises(np.linalg.LinAlgError):
                            f(rows, ridge)
            else:
                with np.errstate(invalid="ignore"):  # as LAPACK meets nan entries
                    self.check(factors, ridge)
                assert np.isnan(fn(factors[1:2], ridge)).any() == (poison == "nan")
            ok, _ = search._evaluate(fn, factors, ridge)
            assert ok.tolist() == [True, not singular, True, True]

    @pytest.mark.parametrize("n", [2, 3])
    def test_empty_and_single_family(self, n):
        rng = rng_for(700 + n)
        factors = self.stack("random", n, 4, rng, size=2)
        assert _margin_value(factors[:0], 1e-8).shape == (0,)
        assert cp.margin_gradient(factors[:0], 1e-8).shape == (0, 4, n, n)
        one = _margin_value(factors[0], 1e-8)
        assert isinstance(one, np.float64) and one == _margin_value(factors, 1e-8)[0]
        assert np.array_equal(cp.margin_gradient(factors[0], 1e-8), cp.margin_gradient(factors, 1e-8)[0])


class TestDrinfeldBound:
    @pytest.mark.parametrize("p", [14, 16, 24])
    def test_scalar_search_respects_drinfeld(self, p):
        res = cp.minimize_margin(cp.SearchConfig(p=p, n=1, restarts=16, master_seed=7))
        assert res.best_margin >= (DRINFELD_GAMMA - 1.0) * p / 2.0
