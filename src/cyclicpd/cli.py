"""Command-line entry point: verify / reproduce / search / eval / sample.

Every run emits one UTF-8 JSON document, to ``--out`` or else to stdout, and
its summary lines to stderr. Numbers use shortest round-trip decimals, so a
command re-run with the same flags and seed gives identical output modulo
the timestamp fields.
"""
from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
import time

import numpy as np

from . import __version__
from . import inequalities as ineq
from . import verify as verify_mod
from .errors import CyclicPDError, FixtureMismatch
from .pdcore import REL_TOL, CyclicFamily, random_pd_stack
from .search import (
    SearchConfig,
    minimize_margin,
    probe_conjecture,
)
from .serialize import family_from_dict, family_to_dict


def _parse_range(text: str) -> list[int]:
    """'3..6' -> [3,4,5,6]; '5' -> [5]; '3,5,7' -> [3,5,7]. A value may appear once."""
    out = []
    for part in text.split(","):
        if ".." in part:
            lo, hi = part.split("..")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    if not out:
        raise ValueError(f"empty range {text!r}")
    if len(set(out)) != len(out):
        raise ValueError(f"repeated value in range {text!r}")
    return out


def _manifest(command: str, config: dict, seed: int, started: float, results) -> dict:
    return {
        "command": command,
        "tool_version": __version__,
        "master_seed": seed,
        "config": config,
        "started": datetime.datetime.fromtimestamp(
            started, tz=datetime.timezone.utc
        ).isoformat(),
        "elapsed_ms": round((time.time() - started) * 1000.0, 3),
        "results": results,
    }


def _emit(doc: dict, out_path) -> None:
    # no indent: an indented dump runs the pure-Python encoder, several times slower
    text = json.dumps(doc, allow_nan=False)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_verify(args) -> int:
    try:
        dims = _parse_range(args.dims)
        p_values = _parse_range(args.p)
        if min(dims) < 1:
            raise ValueError("--dims must be >= 1")
        if min(p_values) < 3:
            raise ValueError("--p must be >= 3")
        if args.trials < 1:
            raise ValueError("--trials must be >= 1")
        if not 0.0 < args.tol_rel < 1.0:
            raise ValueError("--tol-rel must be in (0, 1)")
        fields = ("real", "complex") if args.field == "both" else (args.field,)
    except (ValueError, CyclicPDError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    started = time.time()
    outcomes = verify_mod.run_suites(args.suite, dims, p_values, args.trials, args.seed, args.tol_rel, fields)
    results = {name: oc.to_dict() for name, oc in outcomes.items()}
    config = {
        "suite": args.suite, "dims": dims, "p": p_values, "trials": args.trials,
        "field": args.field, "tol": {"rel": args.tol_rel},
    }
    _emit(_manifest("verify", config, args.seed, started, results), args.out)
    hard_failures = sum(oc.unconditional_failures for oc in outcomes.values())
    for name, oc in outcomes.items():
        found = f"{oc.unconditional_failures} failures"
        if name == "conditional":
            found = f"{len(oc.events)} counterexample events"
            if oc.unconditional_failures:
                found += f", {oc.unconditional_failures} violations where a theorem holds"
        tag = "FAIL" if oc.unconditional_failures else "ok"
        print(f"suite {name}: {sum(r.trials for r in oc.records)} checks, {found} [{tag}]",
              file=sys.stderr)
    return 1 if hard_failures else 0


def cmd_reproduce(args) -> int:
    results = []
    try:
        if args.case in ("shapiro4-eig", "all"):
            rep = ineq.reproduce_counterexample()
            eigs = rep.detail["eigs"]
            print("published eigenvalues: 2.6393 +/- 0.1871i", file=sys.stderr)
            print(f"computed  eigenvalues: {eigs[0]:.6f}, {eigs[1]:.6f}", file=sys.stderr)
            results.append(rep.to_dict())
        if args.case in ("shapiro4-trace", "all"):
            mats = ineq.counterexample_family().mats[None]  # one trial
            rep = ineq.batch_shapiro_trace(mats).report()
            print(f"published trace: {ineq.FIXTURE_TRACE}  computed trace: {rep.lhs:.6f} (bound {rep.rhs})",
                  file=sys.stderr)
            if abs(rep.lhs - ineq.FIXTURE_TRACE) > ineq.FIXTURE_ATOL:
                raise FixtureMismatch(f"trace {rep.lhs:.6f} deviates from published value")
            results.append(ineq.batch_s4_decomposition(mats).report().to_dict())
    except FixtureMismatch as exc:
        print(f"fixture mismatch: {exc}", file=sys.stderr)
        return 1
    _emit({"command": "reproduce", "case": args.case, "results": results}, args.out)
    return 0


def cmd_search(args) -> int:
    try:
        cfg = SearchConfig(
            p=args.p,
            n=args.n if args.n is not None else 1,
            restarts=args.restarts,
            max_iters=args.max_iters,
            step_init=args.step_init,
            ridge=args.ridge,
            master_seed=args.seed,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    started = time.time()
    config = cfg.to_dict()
    sweep = args.n is None and args.p in (12, 23)
    runs = probe_conjecture(args.p, cfg) if sweep else {cfg.n: minimize_margin(cfg)}
    for n, res in runs.items():
        print(f"p={cfg.p} n={n}: best margin {res.best_margin:.12g} [{res.classification}]", file=sys.stderr)
        if sweep and res.classification == "verified_counterexample":
            print(f"CONJECTURE-RELEVANT EVENT: verified negative margin at p={cfg.p}, n={n}", file=sys.stderr)
    if sweep:
        config["n"] = list(runs)  # the dimensions the sweep ran, not the placeholder 1
        results = {str(n): res.to_dict() for n, res in runs.items()}
    else:
        results = runs[cfg.n].to_dict()
    _emit(_manifest("search", config, args.seed, started, results), args.out)
    return 0


def cmd_eval(args) -> int:
    try:
        with open(args.family, encoding="utf-8") as fh:
            doc = json.load(fh)
        families = [family_from_dict(d) for d in (doc if isinstance(doc, list) else [doc])]
        if not families:
            raise ValueError("the file holds an empty list, not a family")
    except (OSError, ValueError, KeyError, CyclicPDError) as exc:
        print(f"error: cannot load family: {exc}", file=sys.stderr)
        return 2
    out = []
    try:
        for fam in families:
            if args.expr == "Fp":
                out.append(ineq.cyclic_sum_trace(fam))
            elif args.expr == "margin":
                out.append(ineq.cyclic_sum_trace(fam) - fam.p * fam.dim / 2.0)
            elif args.expr == "nesbitt_eigs":
                eigs = ineq.bidirectional_spectrum(fam)
                out.append({
                    "forward_backward_eigs": [[z.real, z.imag] for z in eigs],
                    "min_real": float(eigs.real.min()),
                })
            elif args.expr == "bidirectional":
                rep = ineq.batch_bidirectional(fam.mats[None]).report()
                out.append(rep.to_dict())
        # a non-finite value fails the strict encoder here, before any output
        _emit(out[0] if len(out) == 1 else out, None)
    except (ValueError, CyclicPDError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_sample(args) -> int:
    if args.n < 1 or args.p < 3 or args.count < 1 or args.field not in ("real", "complex"):
        print("error: invalid sample parameters", file=sys.stderr)
        return 2
    rng = np.random.default_rng(np.random.SeedSequence(entropy=args.seed))
    stacks = random_pd_stack(args.n, args.count, args.p, rng, args.field)
    fams = [family_to_dict(CyclicFamily(mats)) for mats in stacks]
    _emit(fams[0] if args.count == 1 else fams, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cyclicpd", description=__doc__)
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("verify", help="run randomized theorem/identity suites")
    sp.add_argument("--suite", choices=[*verify_mod.SUITES, "all"], default="all")
    sp.add_argument("--dims", default="1..3")
    sp.add_argument("--p", default="3..6")
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--field", choices=["real", "complex", "both"], default="both")
    sp.add_argument("--out")
    sp.add_argument("--tol-rel", type=float, default=REL_TOL)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("reproduce", help="reproduce the published p=4 counterexample")
    sp.add_argument("--case", choices=["shapiro4-eig", "shapiro4-trace", "all"], default="all")
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_reproduce)

    sp = sub.add_parser("search", help="minimize the cyclic trace-sum margin")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--restarts", type=int, default=32)
    sp.add_argument("--max-iters", type=int, default=3000)
    sp.add_argument("--step-init", type=float, default=0.5)
    sp.add_argument("--ridge", type=float, default=1e-8)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_search)

    sp = sub.add_parser("eval", help="evaluate a quantity on a stored family")
    sp.add_argument("--family", required=True)
    sp.add_argument("--expr", choices=["Fp", "margin", "nesbitt_eigs", "bidirectional"], required=True)
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("sample", help="sample random families to a JSON file")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--count", type=int, default=1)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--field", choices=["real", "complex"], default="real")
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_sample)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "seed", 0) < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    out = getattr(args, "out", None)
    if out and (os.path.isdir(out) or not os.path.isdir(os.path.dirname(os.path.abspath(out)))):
        print(f"error: --out {out!r} is not a file path in an existing directory", file=sys.stderr)
        return 2
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
