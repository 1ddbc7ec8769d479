"""cyclicpd benchmark: drives the shipped ``cyclicpd`` CLI in-process on one workload.

    python3 perfbench/run.py --workload verify-grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

It imports the package from ``src/`` next to this directory, calls
``cyclicpd.cli.main(argv)`` with ``--out`` into a scratch directory, checks
every command's JSON, and repeats the workload's command list (a pass) in a
closed loop until ``--seconds`` are used. ``--workload all`` runs each
workload in a process of its own, so one workload's memory peak cannot leak
into another's.

Timed metrics other than set-up are in calibration units: each pass's wall
time is divided by the time of a fixed numpy batch run around it (see
``Calibration``), because absolute speed on a shared host drifts.

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
spends half the time untraced and half with every traced function wrapped
(see ``tracer.py``), and reports the per-layer metrics. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds the environment block.
``CYCLICPD_THREADS`` and the BLAS thread variables are left as found.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from tracer import TRACED, TRACED_NAMES, Tracer, self_times
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_MIN = 5
THREAD_VARS = ("CYCLICPD_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
NONDETERMINISTIC_KEYS = ("started", "elapsed_ms")

# Timed metrics other than setup are in calibration units (see Calibration):
# absolute speed on a shared machine drifts by tens of percent over minutes.
END_TO_END = {
    "setup_s": "s",
    "wall_cal": "cal",
    "work_per_cal": "1/cal",
    "peak_rss_mb": "MB",
}
# Self times are reported only for layers every workload enters, so no
# reported time is an exact zero; the trace file holds every function's.
SELF_TIME_LAYERS = ("pdcore", "inequalities", "cli.main", "inequalities.cyclic_sum_trace", "pdcore.make_pd")
PER_LAYER = {
    **{f"{name}.calls": "count" for name in TRACED_NAMES},
    **{f"{name}.self_s": "s" for name in SELF_TIME_LAYERS},
    "search.iterations": "count",
    "search.worker_threads": "count",
    "cli.json_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}


class ProgramMissing(RuntimeError):
    pass


def load_program():
    """Import cyclicpd from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "cyclicpd" / "__init__.py").is_file():
        raise ProgramMissing(f"no cyclicpd package under {src}")
    sys.path.insert(0, str(src))
    import cyclicpd
    import cyclicpd.cli  # noqa: F401  (binds the submodules the checks use)

    if src not in Path(cyclicpd.__file__).resolve().parents:
        raise ProgramMissing(f"cyclicpd imported from {cyclicpd.__file__}, not from {src}")
    return cyclicpd


def git_commit(root: Path):
    """HEAD of the checkout's git repository, read without running git; None outside one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "commit": git_commit(ROOT),
    }


def setup_time() -> float:
    """Seconds for a fresh interpreter to start and import ``cyclicpd.cli``."""
    argv = [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); import cyclicpd.cli",
            str(ROOT / "src")]
    t0 = time.perf_counter()
    subprocess.run(argv, cwd=ROOT, stdin=subprocess.DEVNULL, check=True)
    return time.perf_counter() - t0


@dataclass
class CommandResult:
    wall: float
    work: int
    problems: list
    doc: dict | None = None
    json_bytes: int = 0
    spans: list = field(default_factory=list)


def run_command(program, cmd, out: Path, tracer=None) -> CommandResult:
    """Run one command through ``cyclicpd.cli.main`` and check its output; never raises."""
    out.unlink(missing_ok=True)  # a failed command must not pass on the previous pass's file
    argv = list(cmd.argv) + ["--out", str(out)]
    problems = []
    sink = io.StringIO()
    with tracer.installed() if tracer else nullcontext():
        t0 = time.perf_counter()
        try:
            with redirect_stdout(sink), redirect_stderr(sink):
                code = program.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # the command failed; count it and keep measuring
            code = None
            problems.append(f"raised {exc!r}")
        wall = time.perf_counter() - t0
    res = CommandResult(wall, 0, problems, spans=tracer.take() if tracer else [])
    if code != 0 and not problems:
        problems.append(f"exit code {code}: {sink.getvalue()[-500:]}")
    if problems:
        return res
    try:
        text = out.read_text(encoding="utf-8")
        res.json_bytes = len(text.encode("utf-8"))
        res.doc = json.loads(text)
        res.work, found = cmd.check(res.doc, program)
        problems.extend(found)
    except Exception as exc:  # malformed output is a failed command, not a crashed benchmark
        problems.append(f"output check raised {exc!r}")
    return res


def run_pass(program, workload, outdir: Path, tracer=None) -> list[CommandResult]:
    results = []
    for i, cmd in enumerate(workload.commands):
        res = run_command(program, cmd, outdir / f"cmd{i}.json", tracer)
        for problem in res.problems:
            print(f"{workload.name} {' '.join(cmd.argv)}: {problem}", file=sys.stderr)
        results.append(res)
    return results


class Calibration:
    """A fixed batch of interpreter work and small LAPACK calls that uses no cyclicpd code.

    Its time, taken before and after every pass, measures how fast the machine
    runs this kind of work at that moment; dividing a pass's wall time by it
    cancels the drift in machine speed that a shared host shows over minutes.
    One ``cal`` is one run of the batch.
    """

    def __init__(self, np, repeats: int = 400):
        rng = np.random.default_rng(0)
        self.np = np
        self.repeats = repeats
        self.mats = [g @ g.T + n * np.eye(n) for n in (1, 2, 3, 4, 6) for g in [rng.standard_normal((n, n))]]

    def __call__(self) -> float:
        np = self.np
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(self.repeats):
            for a in self.mats:
                acc += float(np.trace(np.linalg.solve(a + a, a)))
                acc += float(np.linalg.eigvalsh(a)[0])
                acc += sum(float(x) for x in a.ravel()[:4])
        return time.perf_counter() - t0


@dataclass
class Pass:
    results: list
    cal: float  # mean calibration time around the pass
    traced: bool
    self_times: dict  # name -> [calls, self seconds]; empty when untraced

    @property
    def wall(self) -> float:
        return sum(r.wall for r in self.results)


def measure(program, workload, seconds: float, outdir: Path, calibrate, tracer=None, between=None) -> list[Pass]:
    """Closed loop: whole passes, one command at a time, until ``seconds`` have passed.

    With a tracer, passes alternate untraced and traced, so drift in machine
    speed reaches both alike. ``between(i)`` runs after pass ``i`` and its
    calibration, outside every timed region.
    """
    deadline = time.perf_counter() + seconds
    kept = 2 if tracer else 1  # leading passes that keep outputs and spans for later checks
    passes = []
    before = calibrate()
    while len(passes) < kept or time.perf_counter() < deadline:
        traced = tracer is not None and len(passes) % 2 == 1
        results = run_pass(program, workload, outdir, tracer if traced else None)
        after = calibrate()
        table = self_times([s for r in results for s in r.spans])
        passes.append(Pass(results, (before + after) / 2.0, traced, table))
        if len(passes) > kept:
            # holding every pass's outputs would grow peak_rss_mb with run length
            for r in results:
                r.doc, r.spans = None, []
        if between is not None:
            between(len(passes))
        before = calibrate() if between is not None else after
    return passes


def stripped(doc):
    if doc is None:
        return None
    return {k: v for k, v in doc.items() if k not in NONDETERMINISTIC_KEYS}


def end_to_end(program, workload, seconds: float, outdir: Path, calibrate):
    """Set-up is sampled between passes, so its median spans the run's drift in machine speed."""
    setup_time()  # unmeasured: writes the bytecode cache that later starts reuse
    setups = []

    def sample_setup(i: int):
        if i % 2:  # every other pass, which leaves most of the run to the passes
            setups.append(setup_time())

    passes = measure(program, workload, seconds, outdir, calibrate, between=sample_setup)
    while len(setups) < SETUP_MIN:
        setups.append(setup_time())
    setup_s = statistics.median(setups)
    results = [r for p in passes for r in p.results]
    work = sum(r.work for r in results)
    metrics = {
        "setup_s": setup_s,
        "wall_cal": statistics.median(p.wall / p.cal for p in passes),
        "work_per_cal": statistics.median(sum(r.work for r in p.results) / (p.wall / p.cal) for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw = {
        "wall_s": statistics.median(p.wall for p in passes),
        "work_per_s": work / sum(p.wall for p in passes),
        "cal_s": statistics.median(p.cal for p in passes),
        "passes": len(passes),
        "setup_samples": len(setups),
    }
    failed = sum(1 for r in results if r.problems)
    return metrics, raw, len(results), failed, None


def per_layer(program, workload, seconds: float, outdir: Path, calibrate):
    """Alternate untraced and traced passes; traced outputs must equal untraced ones."""
    tracer = Tracer(program.__name__)
    passes = measure(program, workload, seconds, outdir, calibrate, tracer)
    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    if tracer.missing:
        print(f"not traced (absent): {', '.join(tracer.missing)}", file=sys.stderr)
    for ref, res in zip(plain[0].results, traced[0].results):
        if not res.problems and stripped(res.doc) != stripped(ref.doc):
            res.problems.append("traced output differs from untraced output")
            print(f"{workload.name}: traced output differs from untraced output", file=sys.stderr)

    tables = [p.self_times for p in traced]
    first_pass = traced[0].results
    first = tables[0]

    def median_self(names) -> float:
        return statistics.median(sum(t.get(n, (0, 0.0))[1] for n in names) for t in tables)

    metrics = {f"{name}.calls": first.get(name, (0, 0.0))[0] for name in TRACED_NAMES}
    for layer in SELF_TIME_LAYERS:
        names = [n for n in TRACED_NAMES if n.split(".")[0] == layer] if layer in TRACED else [layer]
        metrics[f"{layer}.self_s"] = median_self(names)
    metrics["search.iterations"] = sum(
        r.doc["results"]["iterations_used"] for r in first_pass if r.doc and r.doc["command"] == "search")
    metrics["search.worker_threads"] = max(
        len({s[1] for s in r.spans if s[0] == "search.margin_gradient"}) for r in first_pass)
    metrics["cli.json_bytes"] = sum(r.json_bytes for r in first_pass)
    metrics["trace.overhead_ratio"] = (
        statistics.median(p.wall / p.cal for p in traced) / statistics.median(p.wall / p.cal for p in plain))

    functions = {
        name: {"calls": first.get(name, (0, 0.0))[0], "self_s": median_self([name])}
        for name in TRACED_NAMES
    }
    results = [r for p in passes for r in p.results]
    failed = sum(1 for r in results if r.problems)
    raw = {"passes_untraced": len(plain), "passes_traced": len(traced)}
    trace_doc = {"functions": functions, **raw, "spans_first_pass": _span_rows(first_pass)}
    return metrics, raw, len(results), failed, trace_doc


def _span_rows(results) -> list:
    """Spans of one pass as [name, thread, start_s, end_s, parent_row], times from the pass start."""
    spans = [s for r in results for s in r.spans]
    if not spans:
        return []
    t0 = min(s[2] for s in spans)
    row = {id(s): i for i, s in enumerate(spans)}
    return [[s[0], s[1], round(s[2] - t0, 9), round(s[3] - t0, 9),
             row.get(id(s[4])) if s[4] is not None else None] for s in spans]


def run_one(args) -> int:
    try:
        program = load_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import numpy as np

    env = environment(np)
    workload = WORKLOADS[args.workload](args.seed)
    with tempfile.TemporaryDirectory(prefix=".run-", dir=BENCH_DIR) as tmp:
        measure_fn = per_layer if args.trace else end_to_end
        values, raw, attempted, failed, trace_doc = measure_fn(
            program, workload, args.seconds, Path(tmp), Calibration(np))
    units = PER_LAYER if args.trace else END_TO_END
    if trace_doc is not None:
        out_dir = BENCH_DIR / "out"
        out_dir.mkdir(exist_ok=True)
        trace_doc = {"workload": workload.name, "seed": args.seed, "environment": env, **trace_doc}
        path = out_dir / f"trace-{workload.name}-{args.seed}.json"
        path.write_text(json.dumps(trace_doc) + "\n", encoding="utf-8")
        print(f"trace written to {path.relative_to(ROOT)}", file=sys.stderr)
    for name, unit in units.items():
        print(f"{workload.name}  {name:48s} {values[name]:.6g} {unit}", file=sys.stderr)
    print(json.dumps({"environment": env, "work_unit": workload.unit, "raw": raw}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; prints every metric and each verdict."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        print(f"{name}  correct={str(result['correct']).lower()}  "
              f"attempted={result['attempted']}  failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"{name}  {metric:48s} {m['value']:.6g} {m['unit']}")
            combined["metrics"][f"{name}.{metric}"] = m
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
