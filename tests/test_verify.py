"""The trial-batched verify suites and stacked checker kernels against their
looped references in ``looped_oracle``."""
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import looped_oracle as oracle
from cyclicpd import inequalities as ineq
from cyclicpd import verify
from cyclicpd.cli import main
from cyclicpd.pdcore import CyclicFamily, PDMatrix, random_pd_stack

DIMS, PS, TRIALS = range(1, 5), (3, 5, 8), 7
SUITE_NAMES = ("unconditional", "identities", "conditional")


def close(got, want, rel=1e-12):
    return got == want or abs(got - want) <= rel * max(abs(got), abs(want))


def assert_same_outcome(got, want):
    assert got.events == want.events
    assert len(got.records) == len(want.records)
    for g, w in zip(got.records, want.records):
        g, w = g.to_dict(), w.to_dict()
        assert close(g.pop("min_margin"), w.pop("min_margin")), (g, w)
        assert g == w


@pytest.mark.parametrize("stack", [verify.TRIALS_PER_STACK, 3])
@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_batched_suite_matches_looped(monkeypatch, suite, stack):
    monkeypatch.setattr(verify, "TRIALS_PER_STACK", stack)
    got = verify.run_suites(suite, DIMS, PS, TRIALS, 5)[suite]
    want = getattr(oracle, f"run_{suite}")(DIMS, PS, TRIALS, seed=5)
    assert_same_outcome(got, want)


def flip_by_margin(margin):
    """A verdict that fails about half the trials, decided by the margin's digits."""
    return np.floor(np.asarray(margin) * 1e6) % 2 == 0


@pytest.mark.parametrize("suite, name, witnessed", [
    ("unconditional", "square_cycle", True),
    ("unconditional", "nesbitt", True),
    ("unconditional", "weighted_cs", False),
    ("conditional", "shapiro_trace", True),
])
def test_failures_witnesses_and_events_match_looped(monkeypatch, suite, name, witnessed):
    """Both paths judge every trial by the same margin-based rule, so failure
    counts, first-failure witnesses and events must agree trial for trial."""
    batch_fn, check_fn = getattr(ineq, f"batch_{name}"), getattr(oracle, f"check_{name}")

    def batched(*args):
        batch = batch_fn(*args)
        return dataclasses.replace(batch, holds=flip_by_margin(batch.margin))

    def looped(*args):
        rep = check_fn(*args)
        return dataclasses.replace(rep, holds=bool(flip_by_margin(rep.margin)))

    monkeypatch.setattr(ineq, f"batch_{name}", batched)
    monkeypatch.setattr(oracle, f"check_{name}", looped)
    monkeypatch.setattr(verify, "TRIALS_PER_STACK", 4)  # witnesses may come from a later stack
    got = verify.run_suites(suite, DIMS, PS, TRIALS, 6)[suite]
    want = getattr(oracle, f"run_{suite}")(DIMS, PS, TRIALS, seed=6)
    assert sum(r.failures for r in got.records) > 0
    assert any(r.witness for r in got.records) == witnessed
    assert bool(got.events) == (suite == "conditional")
    assert_same_outcome(got, want)


@pytest.mark.parametrize("flipped", [None, "square_cycle", "shapiro_extension", "shapiro_trace"])
@pytest.mark.parametrize("stack", [verify.TRIALS_PER_STACK, 3])
def test_one_walk_equals_the_suites_apart(monkeypatch, stack, flipped):
    """run_suites("all") joins the suites' stacks and runs a shared checker
    once, yet each suite's outcome is exactly the one it gives alone. With a
    checker's verdicts flipped by its margins' digits, the failures, witnesses
    and events show that each suite reads its own rows."""
    monkeypatch.setattr(verify, "TRIALS_PER_STACK", stack)
    monkeypatch.setattr(verify, "_cpu_count", lambda: 1)
    if flipped:
        real = getattr(ineq, f"batch_{flipped}")

        def flipping(*args):
            batch = real(*args)
            return dataclasses.replace(batch, holds=flip_by_margin(batch.margin))

        monkeypatch.setattr(ineq, f"batch_{flipped}", flipping)
    together = verify.run_suites("all", DIMS, PS, TRIALS, 6)
    assert list(together) == list(SUITE_NAMES)
    for name, outcome in together.items():
        assert outcome.to_dict() == verify.run_suites(name, DIMS, PS, TRIALS, 6)[name].to_dict(), name
    if flipped:
        suite = "conditional" if flipped == "shapiro_trace" else "unconditional"
        failed = [r for r in together[suite].records if r.failures]
        assert failed and all(r.check == flipped and r.witness for r in failed)
        assert bool(together["conditional"].events) == (flipped == "shapiro_trace")


def test_all_suites_evaluate_each_family_stack_once(monkeypatch):
    """With every suite asked, each (n, p, field, chunk) of R trials runs
    cyclic_traces once on the three suites' joined family stack (3R rows)
    besides its extended (2R) and reversed (R) families. Each checker runs
    once per chunk: one that the identities suite reads too (``SHARED``) on
    the 2R rows of the two suites, every other one on the R rows of its own
    suite."""
    monkeypatch.setattr(verify, "TRIALS_PER_STACK", 3)
    monkeypatch.setattr(verify, "_cpu_count", lambda: 1)
    calls = {name: [] for name in dir(ineq) if name.startswith("batch_")}
    calls["cyclic_traces"] = []

    def counted(name):
        real = getattr(ineq, name)

        def wrapper(stack, *args):
            mats = getattr(stack, "mats", stack)
            # (rows, members: () for a two-operand bound, n, dtype kind)
            calls[name].append((mats.shape[0], mats.shape[1:-2], mats.shape[-1], mats.dtype.kind))
            return real(stack, *args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(ineq, name, counted(name))
    dims, ps = [1, 2], [3, 5]
    verify.run_suites("identities", dims, ps, 5, 2)
    shared = {name[len("batch_"):] for name, got in calls.items() if got and name.startswith("batch_")}
    assert shared == verify.SHARED
    for got in calls.values():
        got.clear()
    verify.run_suites("all", dims, ps, 5, 2)
    chunks = [(n, kind, rows) for n in dims for kind in "fc" for rows in (3, 2)]
    points = [(n, p, kind, rows) for n in dims for p in ps for kind in "fc" for rows in (3, 2)]
    assert sorted(calls.pop("cyclic_traces")) == sorted(
        (r * k, (p + extra,), n, kind) for n, p, kind, r in points for k, extra in [(3, 0), (2, 2), (1, 0)])
    want = {"batch_shapiro_trace": [(r, (p,), n, kind) for n, p, kind, r in points]}
    for name, words in verify.UNCONDITIONAL_FIXED:
        members = (len(words),) if " " not in words else ()
        want[f"batch_{name}"] = [(r * (1 + (name in shared)), members, n, kind) for n, kind, r in chunks]
    for name in verify.UNCONDITIONAL_FAMILY:
        want[f"batch_{name}"] = [(r * (1 + (name in shared)), (p,), n, kind) for n, p, kind, r in points]
    assert want.keys() == calls.keys()
    for name, got in calls.items():
        assert sorted(got) == sorted(want[name]), name


def same_report(got, want):
    assert got.check_name == want.check_name and (got.n, got.p) == (want.n, want.p)
    assert got.holds == want.holds
    assert close(got.margin, want.margin)
    assert close(got.lhs, want.lhs) and close(got.rhs, want.rhs)
    assert got.detail.keys() == want.detail.keys()
    for key, value in want.detail.items():
        assert np.allclose(got.detail[key], value, rtol=1e-12, atol=0), key


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), p=st.integers(3, 9),
       field=st.sampled_from(["real", "complex"]), trials=st.integers(1, 4))
def test_batch_kernels_match_looped_checkers(seed, n, p, field, trials):
    rng = np.random.default_rng(seed)
    drawn = random_pd_stack(n, trials, 4, rng, field, gaussian_tail=2)
    fams = random_pd_stack(n, trials, p, rng, field)
    args = verify._fixed_args(drawn)
    for name, words in verify.UNCONDITIONAL_FIXED:
        batch = getattr(ineq, f"batch_{name}")(*(args[w] for w in words.split()))
        for t in range(trials):
            ops = dict(zip("abcdxy", [PDMatrix(m) for m in drawn[t, :4]] + list(drawn[t, 4:])))
            # the looped checkers take a cycle's operands one by one
            same_report(batch.report(t), getattr(oracle, f"check_{name}")(*(ops[k] for k in words.replace(" ", ""))))
    for name in verify.UNCONDITIONAL_FAMILY + ("shapiro_trace",):
        batch = getattr(ineq, f"batch_{name}")(fams)
        for t in range(trials):
            same_report(batch.report(t), getattr(oracle, f"check_{name}")(CyclicFamily(fams[t])))


# (suite, rel): a rel under which some records fail. The unconditional suite
# has margins at round-off (block_certificate's blocks are singular; the
# Cauchy-Schwarz bounds are equalities at n = 1), which a slack of 1e-30 does
# not cover. The conditional margins sit far from round-off, so only a
# negative rel, which asks for a margin of |rel| * (1 + norms), fails some.
# The identities suite's bounds are fixed at 1e-10 and read no rel.
@pytest.mark.parametrize("suite, rel", [
    ("unconditional", 1e-30), ("conditional", -0.1), ("identities", 1e-30),
])
def test_suites_read_the_rel_they_are_given(suite, rel):
    got = verify.run_suites(suite, DIMS, PS, TRIALS, 5, rel=rel)[suite]
    want = getattr(oracle, f"run_{suite}")(DIMS, PS, TRIALS, seed=5, rel=rel)
    assert_same_outcome(got, want)
    default = verify.run_suites(suite, DIMS, PS, TRIALS, 5)[suite]
    assert default.unconditional_failures == 0
    if suite == "identities":
        assert_same_outcome(got, default)
    else:
        assert got.unconditional_failures > 0
        assert any(r.witness for r in got.records)


def test_every_checker_reports_the_rel_it_was_given():
    rng = np.random.default_rng(3)
    drawn = random_pd_stack(2, 2, 4, rng, "real", gaussian_tail=2)
    fams = random_pd_stack(2, 2, 5, rng, "real")
    args = verify._fixed_args(drawn)
    batches = [getattr(ineq, f"batch_{name}")(*(args[w] for w in words.split()), 3e-7)
               for name, words in verify.UNCONDITIONAL_FIXED]
    batches += [getattr(ineq, f"batch_{name}")(fams, 3e-7)
                for name in verify.UNCONDITIONAL_FAMILY + ("shapiro_trace",)]
    assert len({b.check_name for b in batches}) == len([n for n in dir(ineq) if n.startswith("batch_")])
    for batch in batches:
        assert batch.rel == 3e-7
        assert batch.report(1).to_dict()["tol"] == {"rel": 3e-7, "abs": 1e-12}


def test_every_checker_is_in_one_table():
    """Every ``batch_`` checker runs in exactly one suite table (the conditional
    suite runs ``shapiro_trace``), and every table entry has a checker."""
    tables = [name for name, _ in verify.UNCONDITIONAL_FIXED] + list(verify.UNCONDITIONAL_FAMILY)
    tables.append("shapiro_trace")
    assert len(tables) == len(set(tables))
    assert {n for n in dir(ineq) if n.startswith("batch_")} == {f"batch_{name}" for name in tables}


CYCLE_CHECKERS = [(name, len(words)) for name, words in verify.UNCONDITIONAL_FIXED if " " not in words]


@pytest.mark.parametrize("name, p", CYCLE_CHECKERS)
def test_cycle_checkers_take_exactly_their_cycle(name, p):
    fn = getattr(ineq, f"batch_{name}")
    fams = random_pd_stack(2, 2, p + 1, np.random.default_rng(4), "real")
    assert fn(fams[:, :p]).holds.all()
    for wrong in (fams[:, :p - 1], fams, ineq.StackContext(fams)):
        with pytest.raises(ValueError, match=f"cycle of {p} members"):
            fn(wrong)


class TestGridRecord:
    def test_first_failure_is_the_witness(self):
        rec = verify.GridRecord("x", 2, 3, "real")
        rec.add([3.0, -1.0, 2.0, -5.0], [True, False, True, False], lambda t: {"trial": t})
        rec.add([-7.0], [False], lambda t: {"trial": 10 + t})
        assert (rec.trials, rec.failures, rec.min_margin) == (5, 3, -7.0)
        assert rec.witness == {"trial": 1}

    def test_nan_margins_do_not_set_the_minimum(self):
        rec = verify.GridRecord("x", 1, 0, "real")
        rec.add([np.nan, 2.0, np.nan], [False, True, False])
        assert (rec.trials, rec.failures, rec.min_margin) == (3, 2, 2.0)
        assert rec.witness is None

    def test_empty_stack(self):
        rec = verify.GridRecord("x", 1, 0, "real")
        rec.add(np.empty(0), np.empty(0, dtype=bool))
        assert (rec.trials, rec.failures, rec.min_margin) == (0, 0, float("inf"))


def test_theorem_covers():
    assert verify.theorem_covers(5, 3) and verify.theorem_covers(2, 4)
    assert verify.theorem_covers(1, 12) and verify.theorem_covers(1, 23)
    assert not verify.theorem_covers(1, 14) and not verify.theorem_covers(2, 5)


class TestConditionalViolations:
    """A shapiro_trace violation fails the suite where a theorem covers (n, p);
    elsewhere it is an event. Every trial is made a violation here."""

    @pytest.fixture(autouse=True)
    def all_violated(self, monkeypatch):
        real = ineq.batch_shapiro_trace
        monkeypatch.setattr(ineq, "batch_shapiro_trace", lambda fams, rel: dataclasses.replace(
            real(fams, rel), holds=np.zeros(len(fams.mats), dtype=bool)))

    def test_covered_fail_uncovered_are_events(self):
        out = verify.run_suites("conditional", [1, 2], [3, 5, 14], 3, 2, fields=("real",))["conditional"]
        failures = {(r.n, r.p): r.failures for r in out.records}
        assert failures == {(1, 3): 3, (1, 5): 3, (1, 14): 0, (2, 3): 3, (2, 5): 0, (2, 14): 0}
        assert all((r.witness is not None) == (r.failures > 0) for r in out.records)
        assert sorted({(e["n"], e["p"]) for e in out.events}) == [(1, 14), (2, 5), (2, 14)]
        assert len(out.events) == 9
        assert out.unconditional_failures == 9

    def test_cli_exit_codes(self, tmp_path, capsys):
        args = ["verify", "--suite", "conditional", "--trials", "2", "--field", "real"]
        assert main(args + ["--dims", "2", "--p", "5", "--out", str(tmp_path / "a.json")]) == 0
        assert "[ok]" in capsys.readouterr().err
        assert main(args + ["--dims", "2", "--p", "4", "--out", str(tmp_path / "b.json")]) == 1
        assert "[FAIL]" in capsys.readouterr().err
        doc = json.loads((tmp_path / "b.json").read_text())["results"]["conditional"]
        assert doc["unconditional_failures"] == 2 and doc["events"] == []
        assert doc["records"][0]["witness"]["p"] == 4


def test_conditional_json_unchanged_without_violations(tmp_path):
    out = tmp_path / "c.json"
    assert main(["verify", "--suite", "conditional", "--dims", "1..2", "--p", "3..5",
                 "--trials", "3", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())["results"]["conditional"]
    assert doc["unconditional_failures"] == 0 and doc["events"] == []
    for rec in doc["records"]:
        assert set(rec) == {"check", "n", "p", "field", "trials", "failures", "min_margin"}
        assert rec["failures"] == 0
