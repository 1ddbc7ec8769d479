"""Randomized verification suites over a (dimension, family-size, field) grid.

Three suites:
  unconditional - every theorem-backed checker must hold on all draws.
  identities    - the exact algebraic identities inside the proofs, to 1e-10.
  conditional   - the open/false-regime trace bound; violations are recorded
                  as counterexample events, never as suite failures.

Aggregation is per grid point: trial count, failure count, worst margin, and
a serialized witness for the first failure (or event). The harness is
sequential and seeded per grid point, so results do not depend on scheduling.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import inequalities as ineq
from .pdcore import DEFAULT_TOL, Tolerance, random_family, random_pd
from .serialize import family_to_dict, matrix_to_dict

SUITES = ("unconditional", "conditional", "identities")

# The unconditional suite's checkers in call order. Record ``name`` is checked by
# ``ineq.check_<name>``, looked up at call time so a wrapper bound there is called.
# Fixed-arity checkers take operands by letter: PD a, b, c, d and square x, y.
UNCONDITIONAL_FIXED = (
    ("trace_product", "ab"), ("weighted_cs", "xya"), ("cs_trace", "xy"),
    ("eigineq1", "ab"), ("nesbitt", "abc"), ("upper_bound_2ab", "abc"),
    ("wz_certificate", "abc"), ("s4_decomposition", "abcd"), ("bidirectional_eig4", "abcd"),
)
UNCONDITIONAL_FAMILY = (
    "harmonic_loewner", "block_certificate", "product_sum_eigs", "nesbitt_k",
    "shapiro_extension", "bidirectional", "square_cycle",
)


@dataclass
class GridRecord:
    check: str
    n: int
    p: int
    field: str
    trials: int = 0
    failures: int = 0
    min_margin: float = float("inf")
    witness: dict | None = None

    def add(self, report: ineq.CheckReport, witness_fn=None):
        self.trials += 1
        self.min_margin = min(self.min_margin, report.margin)
        if not report.holds:
            self.failures += 1
            if self.witness is None and witness_fn is not None:
                self.witness = witness_fn()

    def to_dict(self) -> dict:
        d = {
            "check": self.check,
            "n": self.n,
            "p": self.p,
            "field": self.field,
            "trials": self.trials,
            "failures": self.failures,
            "min_margin": self.min_margin,
        }
        if self.witness is not None:
            d["witness"] = self.witness
        return d


@dataclass
class SuiteOutcome:
    records: list = field(default_factory=list)
    events: list = field(default_factory=list)

    @property
    def unconditional_failures(self) -> int:
        return sum(r.failures for r in self.records)

    def to_dict(self) -> dict:
        return {
            "records": [r.to_dict() for r in self.records],
            "events": self.events,
            "unconditional_failures": self.unconditional_failures,
        }


def _rng_for(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


_FIELD_ID = {"real": 0, "complex": 1}


def _random_rect(rng, n, field):
    x = rng.standard_normal((n, n))
    if field == "complex":
        x = x + 1j * rng.standard_normal((n, n))
    return x


def run_unconditional(dims, p_values, trials, seed, tol=DEFAULT_TOL, fields=("real", "complex")) -> SuiteOutcome:
    out = SuiteOutcome()
    for n in dims:
        for fld in fields:
            rng = _rng_for(seed, 1, n, _FIELD_ID[fld])
            fixed = [(GridRecord(name, n, 0, fld), getattr(ineq, f"check_{name}"), operands)
                     for name, operands in UNCONDITIONAL_FIXED]
            for _ in range(trials):
                a, b, c, d = (random_pd(n, rng, fld) for _ in range(4))
                x, y = _random_rect(rng, n, fld), _random_rect(rng, n, fld)
                drawn = {"a": a, "b": b, "c": c, "d": d, "x": x, "y": y}
                for rec, check, operands in fixed:
                    rec.add(check(*(drawn[k] for k in operands), tol))
            out.records.extend(rec for rec, _, _ in fixed)
        for p in p_values:
            for fld in fields:
                rng = _rng_for(seed, 2, n, p, _FIELD_ID[fld])
                recs = [(GridRecord(name, n, p, fld), getattr(ineq, f"check_{name}"))
                        for name in UNCONDITIONAL_FAMILY]
                for _ in range(trials):
                    fam = random_family(n, p, rng, fld)
                    wit = lambda: family_to_dict(fam)  # noqa: E731
                    for rec, check in recs:
                        rec.add(check(fam, tol), wit)
                out.records.extend(rec for rec, _ in recs)
    return out


def run_identities(dims, p_values, trials, seed, tol=DEFAULT_TOL, fields=("real", "complex")) -> SuiteOutcome:
    """Exact identities only: residuals must sit at round-off, far below 1e-10."""
    out = SuiteOutcome()
    for n in dims:
        for fld in fields:
            rng = _rng_for(seed, 3, n, _FIELD_ID[fld])
            recs = {
                name: GridRecord(name, n, 0, fld)
                for name in ("s4_identity", "two_ab_identity", "wz_identities", "square_cycle_identities")
            }
            ext_recs = {p: GridRecord("extension_identity", n, p, fld) for p in p_values}
            for _ in range(trials):
                a, b, c, d = (random_pd(n, rng, fld) for _ in range(4))
                scale = 1.0 + sum(m.norm() for m in (a, b, c, d))
                r = ineq.check_s4_decomposition(a, b, c, d, tol)
                recs["s4_identity"].add(_residual_report(
                    "s4_identity", n, r.detail["identity_residual"], 1e-10 * scale, tol))
                r = ineq.check_upper_bound_2ab(a, b, c, tol)
                recs["two_ab_identity"].add(_residual_report(
                    "two_ab_identity", n, r.detail["identity_residual"], 1e-10 * scale, tol))
                r = ineq.check_wz_certificate(a, b, c, tol)
                wz_res = max(
                    r.detail["wz_residual"],
                    abs(r.detail["tr_zz"] - r.detail["tr_zz_expected"]),
                    abs(r.detail["tr_ww"] - r.detail["tr_n"]),
                )
                recs["wz_identities"].add(_residual_report(
                    "wz_identities", n, wz_res, 1e-10 * scale**2, tol))
                for p in p_values:
                    fam = random_family(n, p, rng, fld)
                    fam_scale = 1.0 + sum(m.norm() for m in fam.members)
                    r = ineq.check_square_cycle(fam, tol)
                    sc_res = max(r.detail["wz_residual"], r.detail["zz_residual"])
                    recs["square_cycle_identities"].add(_residual_report(
                        "square_cycle_identities", n, sc_res, 1e-10 * fam_scale, tol))
                    r = ineq.check_shapiro_extension(fam, tol)
                    ext_recs[p].add(_residual_report(
                        "extension_identity", n, -r.margin, 1e-10 * (1.0 + abs(r.detail["base"]) + n), tol))
            out.records.extend(recs.values())
            out.records.extend(ext_recs.values())
    return out


def _residual_report(name, n, residual, allowed, tol) -> ineq.CheckReport:
    return ineq.CheckReport(
        name, n, 0, residual, allowed, allowed - residual, residual <= allowed, tol
    )


def run_conditional(dims, p_values, trials, seed, tol=DEFAULT_TOL, fields=("real", "complex")) -> SuiteOutcome:
    out = SuiteOutcome()
    for n in dims:
        for p in p_values:
            for fld in fields:
                rng = _rng_for(seed, 4, n, p, _FIELD_ID[fld])
                rec = GridRecord("shapiro_trace", n, p, fld)
                for _ in range(trials):
                    fam = random_family(n, p, rng, fld)
                    rep = ineq.check_shapiro_trace(fam, tol)
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


def run_suites(suite, dims, p_values, trials, seed, tol=DEFAULT_TOL, fields=("real", "complex")):
    """Dispatch; returns (unconditional_outcome_or_None, conditional, identities)."""
    if suite not in SUITES + ("all",):
        raise ValueError(f"unknown suite {suite!r}")
    results = {}
    if suite in ("unconditional", "all"):
        results["unconditional"] = run_unconditional(dims, p_values, trials, seed, tol, fields)
    if suite in ("identities", "all"):
        results["identities"] = run_identities(dims, p_values, trials, seed, tol, fields)
    if suite in ("conditional", "all"):
        results["conditional"] = run_conditional(dims, p_values, trials, seed, tol, fields)
    return results
