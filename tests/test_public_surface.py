"""The package's public names, and the program the benchmark and the kernel tool read.

A name added to or dropped from ``cyclicpd.__all__`` is added to or dropped
from ``PUBLIC`` here in the same change. ``perfbench/`` drives the CLI and
re-checks each search result through the program's own functions. The tests
below run small commands and pass their JSON through the benchmark's own
output checks (``perfbench/workloads.py``, imported by path), so a change that
breaks what the benchmark reads fails here, not only in a benchmark run. The
names ``tools/bench_kernel.py`` reads are checked to exist too, and its
count layer to count every call. No line of the package's source is longer
than 116 columns.
"""
import ast
import dataclasses
import importlib
import importlib.util
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import cyclicpd
import cyclicpd.cli
from cyclicpd import inequalities as ineq

PUBLIC = [
    "CheckReport", "ConvergenceFailure", "CyclicFamily", "CyclicPDError", "DimensionMismatch",
    "EntryTooLarge", "FixtureMismatch", "IllConditioned", "NotFinite", "NotHermitian",
    "NotPositiveDefinite", "NotSquare", "PDMatrix", "SearchConfig", "SearchResult",
    "SingularDenominator", "counterexample_family", "cyclic_sum_trace",
    "errors", "family_from_dict", "family_to_dict", "inequalities",
    "margin_gradient", "minimize_margin", "pdcore", "reproduce_counterexample",
    "scalar_cyclic_sum", "search", "serialize", "validate_family",
]

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
KERNEL_TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_kernel.py"


def test_public_names_are_the_listed_ones():
    assert sorted(cyclicpd.__all__) == PUBLIC


@pytest.fixture(scope="module")
def workloads():
    """``perfbench/workloads.py``, imported by path as the benchmark imports it."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


def run_cli(argv, out: Path) -> dict:
    assert cyclicpd.cli.main(argv + ["--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_attributes_the_benchmark_reads_exist():
    reads = set()
    for name in ("run.py", "workloads.py"):
        reads |= set(re.findall(r"\bprogram\.(\w+)\.(\w+)", (PERFBENCH / name).read_text()))
    assert reads >= {("cli", "main"), ("serialize", "family_from_dict"),
                     ("inequalities", "cyclic_sum_trace"), ("search", "scalar_cyclic_sum")}
    for module, attr in sorted(reads):
        assert callable(getattr(importlib.import_module(f"cyclicpd.{module}"), attr)), (module, attr)


class _Calls(ast.NodeVisitor):
    """The enclosing function of each call of ``name`` in one module."""

    def __init__(self, name):
        self.name, self.scope, self.found = name, [], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Call(self, node):
        f = node.func
        if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == self.name:
            self.found.append(".".join(self.scope))
        self.generic_visit(node)


def calls_in_program(name):
    """(module, function) of each call of ``name`` in the package's source."""
    found = []
    for path in sorted(Path(cyclicpd.__file__).parent.glob("*.py")):
        visitor = _Calls(name)
        visitor.visit(ast.parse(path.read_text()))
        found += [(path.stem, fn) for fn in visitor.found]
    return found


def test_the_program_passes_families_as_stacks():
    """Inside the program a family is its stack: ``CyclicFamily`` is built only
    where the benchmark's reader gets one, and ``cyclic_sum_trace``, kept for
    that reader, has no caller."""
    assert calls_in_program("CyclicFamily") == [("serialize", "family_from_dict")]
    assert calls_in_program("cyclic_sum_trace") == []


def test_no_source_line_is_longer_than_116_columns():
    long = [f"{path.name}:{i}" for path in sorted(Path(cyclicpd.__file__).parent.glob("*.py"))
            for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1) if len(line) > 116]
    assert long == []


def test_attributes_the_kernel_tool_reads_exist():
    """Every ``cyclicpd`` name that the tool imports, or reads through a
    ``cyclicpd`` module it imports, exists."""
    tree = ast.parse(KERNEL_TOOL.read_text())
    modules, reads = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update({a.asname or a.name: a.name for a in node.names if a.name.startswith("cyclicpd")})
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cyclicpd"):
            reads |= {(node.module, a.name) for a in node.names}
            if node.module == "cyclicpd":
                modules.update({a.asname or a.name: f"cyclicpd.{a.name}" for a in node.names})
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            reads.add((modules[node.value.id], node.attr))
    assert reads >= {("cyclicpd.inequalities", "cyclic_traces"), ("cyclicpd.search", "_descend"),
                     ("cyclicpd.pdcore", "random_pd_stack")}
    for module, attr in sorted(reads):
        assert hasattr(importlib.import_module(module), attr), (module, attr)


def test_count_layer_counts_every_dataclass_init():
    """Two dataclasses' ``__init__``s share a file, line and name (``<string>``,
    2, ``__init__``); the tool's count layer counts the calls of both, and
    the np.linalg and ``cyclicpd`` calls by routine."""
    spec = importlib.util.spec_from_file_location("bench_kernel", KERNEL_TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    first, second = dataclasses.make_dataclass("First", ["x"]), dataclasses.make_dataclass("Second", ["x", "y"])
    base, _, _ = tool.counted(lambda: None)
    calls, _, _ = tool.counted(lambda: (first(1), second(1, 2), second(3, 4)))
    assert calls - base == 3
    eye = np.eye(2)
    _, linalg, own = tool.counted(lambda: (np.linalg.inv(eye), ineq._inv(eye), ineq._inv(eye)),
                                  functions=[("inequalities", "_inv")])
    assert linalg["inv"] == 1 and own == {"inequalities._inv": 2}


@pytest.mark.parametrize("p, n", [(14, 1), (5, 3)])
def test_benchmark_accepts_search_output(workloads, tmp_path, p, n):
    restarts, max_iters = 2, 20
    doc = run_cli(["search", "--p", str(p), "--n", str(n), "--restarts", str(restarts),
                   "--max-iters", str(max_iters), "--seed", "3"], tmp_path / "s.json")
    work, problems = workloads.check_search(doc, cyclicpd, p, n, restarts, max_iters)
    assert problems == [] and work == doc["results"]["iterations_used"] > 0


def test_benchmark_accepts_verify_output(workloads, tmp_path):
    dims, ps, trials = range(1, 3), range(3, 5), 2
    doc = run_cli(["verify", "--suite", "all", "--dims", "1..2", "--p", "3..4", "--field", "both",
                   "--trials", str(trials), "--seed", "3"], tmp_path / "v.json")
    work, problems = workloads.check_verify(doc, dims, ps, trials)
    assert problems == [] and work > 0
