"""The shared per-stack context against the raw-array path.

A ``batch_<name>`` given a :class:`StackContext` of a family or a cycle reads
the intermediates that earlier checkers of the same stack computed; given a
plain array it wraps it in a fresh context and computes everything itself.
The raw-array path is the oracle: both must give the same bits, whatever
order the checkers run in.
Each intermediate is also checked against its definition, with the member
sum written as a Python loop.
"""
import numpy as np
import pytest

import looped_oracle as oracle
from cyclicpd import inequalities as ineq
from cyclicpd import verify
from cyclicpd.pdcore import _fro, random_pd_stack

TRIALS = 3
GRID = [(n, p, field) for n in (1, 2, 3, 4) for p in (3, 5, 8) for field in ("real", "complex")]


def same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def assert_same_batch(got, want):
    assert (got.check_name, got.n, got.p) == (want.check_name, want.n, want.p)
    pairs = [(got.lhs, want.lhs), (got.rhs, want.rhs), (got.margin, want.margin), (got.holds, want.holds)]
    assert got.detail.keys() == want.detail.keys()
    pairs += [(got.detail[k], want.detail[k]) for k in want.detail]
    assert all(same_bits(g, w) for g, w in pairs), want.check_name


def draw(n, p, field):
    rng = np.random.default_rng(100 * n + p + len(field))
    return random_pd_stack(n, TRIALS, 4, rng, field, gaussian_tail=2), random_pd_stack(n, TRIALS, p, rng, field)


@pytest.mark.parametrize("n, p, field", GRID)
def test_context_equals_raw_arrays(n, p, field):
    drawn, fams = draw(n, p, field)
    raw = verify.checker_args(drawn, fams, plain=True)
    for order in (1, -1):
        # the cycles as verify builds them and the family, each in one context
        # its checkers share
        shared = verify.checker_args(drawn, ineq.StackContext(fams))
        for name in list(ineq.CHECKS)[::order]:
            fn = getattr(ineq, f"batch_{name}")
            assert_same_batch(fn(*shared[name]), fn(*raw[name]))


@pytest.mark.parametrize("n, p, field", GRID)
def test_intermediates_match_their_definitions(n, p, field):
    drawn, fams = draw(n, p, field)
    psum = lambda m: oracle.looped_sum_over_p(np.moveaxis(m, -3, -1))  # noqa: E731
    ctx = ineq.StackContext(fams)
    inv = ineq._inv(fams)
    assert same_bits(ctx.inv, inv) and ctx.inv is ctx.inv
    assert same_bits(ctx.total, psum(fams))
    assert same_bits(ctx.inv_total, psum(inv))
    assert same_bits(ctx.total_inv, ineq._inv(psum(fams)))
    assert same_bits(ctx.fro_sum, oracle.looped_sum_over_p(_fro(fams)))
    assert same_bits(ctx.traces, ineq.cyclic_traces(fams))
    args = verify.checker_args(drawn, fams)
    # a cycle's norm sum adds its operands' norms, one operand at a time
    for name, (w, _) in ineq.CHECKS.items():
        if w not in ("abc", "abcd"):
            continue
        (cyc,) = args[name]
        assert same_bits(cyc.mats, drawn[:, :len(w)]) and cyc.mats.flags.c_contiguous
        norms = np.stack([_fro(x) for x in np.moveaxis(drawn[:, :len(w)], 1, 0)], axis=-1)
        assert same_bits(cyc.fro_sum, oracle.looped_sum_over_p(norms))
    assert same_bits(args["nesbitt"][0].two_ab, ineq._two_ab_sums(np.ascontiguousarray(drawn[:, :3])))


def test_grid_point_inverts_and_traces_its_family_stack_once(monkeypatch):
    """Four checkers need A_i^{-1} and two the cyclic trace sum; one grid
    point of the unconditional suite alone computes each once on its family
    stack."""
    drawn, calls = [], {"_inv": [], "cyclic_traces": []}

    def draw(*args, **kwargs):
        drawn.append(random_pd_stack(*args, **kwargs))
        return drawn[-1]

    def counted(name):
        real = getattr(ineq, name)

        def wrapper(mats, *args):
            calls[name].append(mats)
            return real(mats, *args)
        return wrapper

    monkeypatch.setattr(verify, "random_pd_stack", draw)
    for name in calls:
        monkeypatch.setattr(ineq, name, counted(name))
    out = verify.run_suites("unconditional", [2], [5], 4, 3, fields=("real",))["unconditional"]
    assert [r.trials for r in out.records] == [4] * len(out.records)
    fams = drawn[-1]
    assert fams.shape == (4, 5, 2, 2)
    for name, args in calls.items():
        assert sum(a is fams for a in args) == 1, name


def assert_rows_of(joined, lo, hi, part):
    """Trials lo:hi of the joined batch are, bit for bit, the part's batch: its
    per-trial arrays are the joined ones' rows, its shared values equal."""
    assert (joined.check_name, joined.n, joined.p) == (part.check_name, part.n, part.p)
    assert joined.detail.keys() == part.detail.keys()
    pairs = [(joined.lhs, part.lhs), (joined.rhs, part.rhs), (joined.margin, part.margin),
             (joined.holds, part.holds)] + [(joined.detail[k], part.detail[k]) for k in part.detail]
    for got, want in pairs:
        got = np.asarray(got)
        assert same_bits(got[lo:hi] if got.ndim else got, want), part.check_name


ROW_GRID = [(n, p, field) for n in (1, 2, 3, 4) for p in (3, 4, 8) for field in ("real", "complex")]


@pytest.mark.parametrize("n, p, field", ROW_GRID)
def test_a_trial_does_not_depend_on_its_stack(n, p, field):
    """Every checker on X and Y stacked on the trial axis gives, row for row,
    what it gives on X alone and on Y alone: the fact that lets verify join
    the suites' stacks and cut trials into chunks. In the complex field, X
    is also taken with its imaginary parts dropped, but still complex, so
    that real-valued rows are joined to genuinely complex ones."""
    rng = np.random.default_rng(1000 * n + 10 * p + len(field))
    x, y = (random_pd_stack(n, t, 4, rng, field, gaussian_tail=2) for t in (3, 2))
    fx, fy = (random_pd_stack(n, t, p, rng, field) for t in (3, 2))
    stacks = [(x, y, fx, fy)] + ([(x.real + 0j, y, fx.real + 0j, fy)] if field == "complex" else [])
    for x, y, fx, fy in stacks:
        joined, first, second = (verify.checker_args(d, f, plain=True) for d, f in
                                 [(np.concatenate([x, y]), np.concatenate([fx, fy])), (x, fx), (y, fy)])
        for name in ineq.CHECKS:
            fn = getattr(ineq, f"batch_{name}")
            whole = fn(*joined[name])
            assert_rows_of(whole, 0, 3, fn(*first[name]))
            assert_rows_of(whole, 3, 5, fn(*second[name]))


@pytest.mark.parametrize("n, p, field", ROW_GRID)
def test_row_view_equals_a_fresh_context(n, p, field):
    """A row view's intermediates are its parent's rows, computed once, with
    the bits of a fresh context on those rows; so are its checkers' batches."""
    rng = np.random.default_rng(2000 * n + 10 * p + len(field))
    fams = random_pd_stack(n, 5, p, rng, field)
    ctx = ineq.StackContext(fams)
    view = ctx.rows(3, 5)
    fresh = ineq.StackContext(fams[3:5])
    assert ctx.rows(0, 5) is ctx and same_bits(view.mats, fresh.mats)
    for name in ineq._INTERMEDIATES:
        got, want = getattr(view, name), getattr(fresh, name)
        for g, w, whole in zip(*(v if isinstance(v, tuple) else (v,) for v in (got, want, getattr(ctx, name)))):
            assert same_bits(g, w), name
            assert np.shares_memory(g, whole), name
    for name, (word, _) in ineq.CHECKS.items():
        if word == ineq.FAMILY:
            fn = getattr(ineq, f"batch_{name}")
            assert_same_batch(fn(view), fn(fresh))
