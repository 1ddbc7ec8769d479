"""The shared per-stack context against the raw-array path.

A ``batch_<name>`` given a :class:`StackContext` reads the intermediates that
earlier checkers of the same stack computed; given a plain array it wraps it
in a fresh context and computes everything itself. The raw-array path is the
oracle: both must give the same bits, whatever order the checkers run in.
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
    raw = dict(zip("abcdxy", np.moveaxis(drawn, 1, 0)))
    for order in (1, -1):
        shared = {k: ineq.StackContext(v) for k, v in raw.items()}
        for name, letters in verify.UNCONDITIONAL_FIXED[::order]:
            fn = getattr(ineq, f"batch_{name}")
            assert_same_batch(fn(*(shared[k] for k in letters)), fn(*(raw[k] for k in letters)))
        ctx = ineq.StackContext(fams)
        for name in (verify.UNCONDITIONAL_FAMILY + ("shapiro_trace",))[::order]:
            fn = getattr(ineq, f"batch_{name}")
            assert_same_batch(fn(ctx), fn(fams))


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
    assert same_bits(ctx.fro, _fro(fams))
    assert same_bits(ctx.traces, ineq.cyclic_traces(fams))
    a, b, c, d = map(ineq.StackContext, np.moveaxis(drawn[:, :4], 1, 0))
    # per-operand norms are the columns of the norms of the operand stack
    assert same_bits(np.stack([x.fro for x in (a, b, c, d)], axis=-1), _fro(drawn[:, :4]))
    abc = a.cycle(b, c)
    assert abc is a.cycle(b, c) and abc is not a.cycle(b, c, d)
    assert same_bits(abc.mats, drawn[:, :3])
    for got, want in zip(abc.two_ab, ineq._two_ab_sums(np.ascontiguousarray(drawn[:, :3]))):
        assert same_bits(got, want)


def test_grid_point_inverts_and_traces_its_family_stack_once(monkeypatch):
    """Four checkers need A_i^{-1} and two the cyclic trace sum; one
    run_unconditional grid point computes each once on its family stack."""
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
    out = verify.run_unconditional([2], [5], 4, seed=3, fields=("real",))
    assert [r.trials for r in out.records] == [4] * len(out.records)
    fams = drawn[-1]
    assert fams.shape == (4, 5, 2, 2)
    for name, args in calls.items():
        assert sum(a is fams for a in args) == 1, name
